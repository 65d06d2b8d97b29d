module D = Lattice_device

type case_result = { name : string; currents : float array; total_drain : float }

type result = {
  cases : case_result list;
  symmetry_groups : (string list * float) list;
  symmetry_holds : bool;
}

(* rotating a case by 90 degrees permutes the terminals cyclically *)
let rotate (c : D.Op_case.t) = Array.init 4 (fun i -> c.((i + 3) mod 4))

let canonical_key c =
  let rec rotations acc c k = if k = 0 then acc else rotations (c :: acc) (rotate c) (k - 1) in
  let all = rotations [] c 4 in
  List.fold_left
    (fun best r ->
      let s = D.Op_case.to_string r in
      match best with Some b when b <= s -> best | Some _ | None -> Some s)
    None all
  |> Option.get

let run () =
  let v = D.Presets.find ~shape:D.Geometry.Square ~dielectric:D.Material.HfO2 in
  let cases =
    List.map
      (fun case ->
        let currents = D.Device_model.terminal_currents v.D.Presets.model ~case ~vgs:5.0 ~vds:5.0 in
        let total_drain =
          Array.fold_left (fun acc i -> if i > 0.0 then acc +. i else acc) 0.0 currents
        in
        { name = D.Op_case.to_string case; currents; total_drain })
      D.Op_case.all
  in
  (* group rotation-equivalent cases; within a group the square device's
     4-fold symmetry makes the drain totals... only adjacent/opposite
     distinction matters, which rotations preserve *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun cr ->
      let key = canonical_key (D.Op_case.of_string cr.name) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (cr :: existing))
    cases;
  let symmetry_groups =
    Hashtbl.fold
      (fun _ members acc ->
        (List.map (fun cr -> cr.name) members, (List.hd members).total_drain) :: acc)
      groups []
  in
  let symmetry_holds =
    Hashtbl.fold
      (fun _ members ok ->
        ok
        && List.for_all
             (fun cr -> Float.abs (cr.total_drain -. (List.hd members).total_drain) < 1e-15)
             members)
      groups true
  in
  { cases; symmetry_groups; symmetry_holds }

let report () =
  let r = run () in
  let rows =
    [
      Report.row ~id:"SecIIIB" ~metric:"16 operating cases evaluated" ~paper:"16"
        ~measured:(string_of_int (List.length r.cases)) ();
      Report.row ~id:"SecIIIB" ~metric:"symmetric cases correlate" ~paper:"'good correlations'"
        ~measured:(if r.symmetry_holds then "exact" else "NO")
        ~note:"rotation-equivalent cases give identical drain currents" ();
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "case   I(T1)        I(T2)        I(T3)        I(T4)       drain total (A)\n";
  List.iter
    (fun cr ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %11.4g  %11.4g  %11.4g  %11.4g  %11.4g\n" cr.name cr.currents.(0)
           cr.currents.(1) cr.currents.(2) cr.currents.(3) cr.total_drain))
    r.cases;
  {
    Report.title = "Section III-B: the 16 drain/source cases (square, HfO2, VGS = VDS = 5 V)";
    rows;
    body = Buffer.contents buf;
  }

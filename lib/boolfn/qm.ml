type implicant = { value : int; mask : int }

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

module ImpSet = Set.Make (struct
  type t = implicant

  let compare a b =
    match Int.compare a.mask b.mask with 0 -> Int.compare a.value b.value | c -> c
end)

(* Classic tabular method: repeatedly merge implicants differing in exactly
   one constrained bit; implicants that never merge are prime. *)
let prime_implicants t =
  let nvars = Truthtable.nvars t in
  let start = List.map (fun m -> { value = m; mask = 0 }) (Truthtable.minterms t) in
  let rec rounds current primes =
    if current = [] then primes
    else begin
      let cur = Array.of_list (ImpSet.elements (ImpSet.of_list current)) in
      let n = Array.length cur in
      let merged_flag = Array.make n false in
      let next = ref ImpSet.empty in
      (* bucket by number of ones to cut the pairing work *)
      let buckets = Array.make (nvars + 1) [] in
      Array.iteri
        (fun i imp ->
          let ones = popcount (imp.value land lnot imp.mask) in
          buckets.(ones) <- i :: buckets.(ones))
        cur;
      for ones = 0 to nvars - 1 do
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                let a = cur.(i) and b = cur.(j) in
                if a.mask = b.mask then begin
                  let diff = a.value lxor b.value in
                  if popcount diff = 1 then begin
                    merged_flag.(i) <- true;
                    merged_flag.(j) <- true;
                    next := ImpSet.add { value = a.value land b.value; mask = a.mask lor diff } !next
                  end
                end)
              buckets.(ones + 1))
          buckets.(ones)
      done;
      let primes =
        Array.to_list cur
        |> List.mapi (fun i imp -> (i, imp))
        |> List.filter_map (fun (i, imp) -> if merged_flag.(i) then None else Some imp)
        |> List.append primes
      in
      rounds (ImpSet.elements !next) primes
    end
  in
  rounds start []

let implicant_covers imp m = m land lnot imp.mask = imp.value land lnot imp.mask

let cube_of_implicant nvars imp =
  let lits = ref [] in
  for v = 0 to nvars - 1 do
    let bit = 1 lsl v in
    if imp.mask land bit = 0 then lits := (v, imp.value land bit <> 0) :: !lits
  done;
  Cube.of_literals !lits

(* Cover construction: essential primes first; the residue is solved as an
   exact minimum set cover by branch and bound (branching on the uncovered
   minterm with the fewest coverers, Petrick-style). A node budget bounds
   the search; if exceeded, the incumbent (seeded with a greedy solution)
   is returned, so the result is always a valid cover and exact for the
   small control functions lattices are built from. *)
let cover t =
  let nvars = Truthtable.nvars t in
  let primes = Array.of_list (prime_implicants t) in
  let minterms = Array.of_list (Truthtable.minterms t) in
  let nm = Array.length minterms in
  let np = Array.length primes in
  let covers = Array.init np (fun pi -> Array.map (implicant_covers primes.(pi)) minterms) in
  let coverers = Array.init nm (fun mi ->
      List.filter (fun pi -> covers.(pi).(mi)) (List.init np Fun.id))
  in
  (* essential primes: sole coverer of some minterm *)
  let essential = Array.make np false in
  Array.iter (function [ pi ] -> essential.(pi) <- true | _ -> ()) coverers;
  let covered = Array.make nm false in
  let base = ref [] in
  Array.iteri
    (fun pi is_essential ->
      if is_essential then begin
        base := pi :: !base;
        Array.iteri (fun mi c -> if c then covered.(mi) <- true) covers.(pi)
      end)
    essential;
  let uncovered0 = List.filter (fun mi -> not covered.(mi)) (List.init nm Fun.id) in
  (* greedy incumbent over the residue *)
  let greedy () =
    let cov = Array.copy covered in
    let chosen = ref [] in
    let remaining = ref (List.length uncovered0) in
    while !remaining > 0 do
      let best = ref (-1) and best_gain = ref 0 in
      for pi = 0 to np - 1 do
        let gain = ref 0 in
        Array.iteri (fun mi c -> if c && not cov.(mi) then incr gain) covers.(pi);
        if !gain > !best_gain then begin
          best := pi;
          best_gain := !gain
        end
      done;
      if !best < 0 then failwith "Qm.cover: uncoverable minterm (internal error)";
      chosen := !best :: !chosen;
      Array.iteri
        (fun mi c ->
          if c && not cov.(mi) then begin
            cov.(mi) <- true;
            decr remaining
          end)
        covers.(!best)
    done;
    !chosen
  in
  let best_solution = ref (greedy ()) in
  let budget = ref 100_000 in
  (* branch and bound on the residue *)
  let cov = Array.copy covered in
  let rec search chosen depth =
    decr budget;
    if !budget > 0 && depth < List.length !best_solution then begin
      match
        (* pick the hardest uncovered minterm *)
        List.fold_left
          (fun acc mi ->
            if cov.(mi) then acc
            else begin
              let k = List.length (List.filter (fun pi -> not (List.mem pi chosen)) coverers.(mi)) in
              ignore k;
              match acc with
              | Some (_, best_k) when best_k <= List.length coverers.(mi) -> acc
              | Some _ | None -> Some (mi, List.length coverers.(mi))
            end)
          None uncovered0
      with
      | None -> best_solution := chosen (* everything covered: new incumbent *)
      | Some (mi, _) ->
        List.iter
          (fun pi ->
            let newly = ref [] in
            Array.iteri
              (fun mj c ->
                if c && not cov.(mj) then begin
                  cov.(mj) <- true;
                  newly := mj :: !newly
                end)
              covers.(pi);
            search (pi :: chosen) (depth + 1);
            List.iter (fun mj -> cov.(mj) <- false) !newly)
          coverers.(mi)
    end
  in
  if uncovered0 <> [] && np <= 64 then search [] 0;
  let chosen = List.sort_uniq Int.compare (!base @ !best_solution) in
  Sop.of_cubes nvars (List.map (fun pi -> cube_of_implicant nvars primes.(pi)) chosen)

module S = Lattice_synthesis
module Fc = Lattice_flow.Fault_campaign
module Defects = Lattice_spice.Defects

let run () =
  let options =
    { Fc.default_options with Fc.classes = [ Defects.Opens; Defects.Shorts ]; attempt_repair = false }
  in
  Fc.run ~options S.Library.xor3_3x3 ~target:S.Library.xor3

let report () =
  let r = run () in
  let n = Array.length r.Fc.samples in
  let pct k = 100.0 *. float_of_int k /. float_of_int n in
  let rows =
    [
      Report.row ~id:"SecVI" ~metric:"XOR3 3x3 single-defect samples" ~paper:"-"
        ~measured:(string_of_int n) ~note:"stuck-open + stuck-short universe" ();
      Report.row ~id:"SecVI" ~metric:"samples classified (no exceptions)" ~paper:"-"
        ~measured:
          (Printf.sprintf "%d"
             (r.Fc.counts.Fc.functional + r.Fc.counts.Fc.degraded + r.Fc.counts.Fc.faulty
            + r.Fc.counts.Fc.non_convergent))
        ();
      Report.row_f ~id:"SecVI" ~metric:"faulty fraction (%)" ~paper:Float.nan
        ~measured:(pct r.Fc.counts.Fc.faulty) ();
      Report.row_f ~id:"SecVI" ~metric:"test-set detection (%)" ~paper:Float.nan
        ~measured:(pct r.Fc.detected)
        ~note:"circuit-level defects caught by the logical test set" ();
      Report.row ~id:"SecVI" ~metric:"logical test-set size" ~paper:"-"
        ~measured:(string_of_int (List.length r.Fc.test_set)) ();
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "defect                    class           v_low     v_high    mism  newton\n";
  Array.iter
    (fun (s : Fc.sample) ->
      let name = String.concat " + " (List.map Defects.name s.Fc.defects) in
      Buffer.add_string buf
        (Printf.sprintf "%-25s %-14s %8.3f %9.3f %5d %7d\n" name
           (Fc.classification_name s.Fc.classification)
           s.Fc.worst_v_low
           (if Float.is_finite s.Fc.worst_v_high then s.Fc.worst_v_high else Float.nan)
           (List.length s.Fc.mismatches) s.Fc.newton_iterations))
    r.Fc.samples;
  Buffer.add_string buf
    (Printf.sprintf
       "\nclasses: %d functional, %d degraded, %d faulty, %d non-convergent; %d Newton iterations total\n"
       r.Fc.counts.Fc.functional r.Fc.counts.Fc.degraded r.Fc.counts.Fc.faulty
       r.Fc.counts.Fc.non_convergent r.Fc.total_newton);
  {
    Report.title = "Defect campaign: XOR3 3x3 under circuit-level stuck defects";
    rows;
    body = Buffer.contents buf;
  }

module Sp = Lattice_spice

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_dc_options b (o : Sp.Dcop.options) =
  add_int b o.Sp.Dcop.max_iterations;
  add_float b o.Sp.Dcop.abstol;
  add_float b o.Sp.Dcop.reltol;
  add_float b o.Sp.Dcop.gmin_final;
  add_int b (List.length o.Sp.Dcop.gmin_steps);
  List.iter (add_float b) o.Sp.Dcop.gmin_steps;
  add_int b o.Sp.Dcop.source_steps;
  add_float b o.Sp.Dcop.damping

let version = "dcop-v5"

let dc_op ?(options = Sp.Dcop.default_options) ?(time = 0.0) ?seed netlist =
  let b = Buffer.create 256 in
  add_string b version;
  add_dc_options b options;
  add_float b time;
  (match seed with
  | None -> add_int b 0
  | Some key ->
    add_int b 1;
    add_string b key);
  Buffer.add_string b (Sp.Netlist.wave_free_digest netlist);
  Sp.Netlist.add_vsource_waves b netlist;
  Digest.to_hex (Digest.string (Buffer.contents b))

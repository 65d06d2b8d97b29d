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
  add_float b o.Sp.Dcop.damping;
  (* conv_trace changes the diagnostics payload, and cache hits replay
     diagnostics verbatim — traced and untraced solves must not alias *)
  add_int b (Bool.to_int o.Sp.Dcop.conv_trace)

let dc_options_digest options =
  let b = Buffer.create 128 in
  add_dc_options b options;
  Digest.to_hex (Digest.string (Buffer.contents b))

let dc_op ?(options = Sp.Dcop.default_options) ?(time = 0.0) netlist =
  let b = Buffer.create 192 in
  add_string b "dcop-v1";
  add_dc_options b options;
  add_float b time;
  add_string b (Sp.Netlist.structural_digest netlist);
  Digest.to_hex (Digest.string (Buffer.contents b))

let custom parts =
  let b = Buffer.create 128 in
  List.iter
    (function
      | `S s -> Buffer.add_char b 's'; add_string b s
      | `F f -> Buffer.add_char b 'f'; add_float b f
      | `I i -> Buffer.add_char b 'i'; add_int b i)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

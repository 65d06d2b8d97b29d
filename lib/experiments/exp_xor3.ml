module S = Lattice_synthesis

type result = {
  lattice_3x3_valid : bool;
  lattice_3x4_valid : bool;
  altun_riedel_rows : int;
  altun_riedel_cols : int;
  altun_riedel_valid : bool;
}

let run () =
  let xor3 = S.Library.xor3 in
  let ar = S.Altun_riedel.synthesize xor3 in
  {
    lattice_3x3_valid = S.Validate.realizes S.Library.xor3_3x3 xor3;
    lattice_3x4_valid = S.Validate.realizes S.Library.xor3_3x4 xor3;
    altun_riedel_rows = ar.S.Altun_riedel.grid.Lattice_core.Grid.rows;
    altun_riedel_cols = ar.S.Altun_riedel.grid.Lattice_core.Grid.cols;
    altun_riedel_valid = S.Validate.realizes ar.S.Altun_riedel.grid xor3;
  }

let report () =
  let r = run () in
  let names = S.Library.abc_names in
  let yesno b = if b then "yes" else "NO" in
  let rows =
    [
      Report.row ~id:"Fig3b" ~metric:"3x3 XOR3 lattice realizes XOR3" ~paper:"yes"
        ~measured:(yesno r.lattice_3x3_valid) ();
      Report.row ~id:"Fig3a" ~metric:"3x4 XOR3 lattice realizes XOR3" ~paper:"yes"
        ~measured:(yesno r.lattice_3x4_valid) ();
      Report.row ~id:"Fig3" ~metric:"dual-based (Altun-Riedel) size" ~paper:"4x4 (self-dual)"
        ~measured:(Printf.sprintf "%dx%d%s" r.altun_riedel_rows r.altun_riedel_cols
             (if r.altun_riedel_valid then "" else " INVALID"))
        ();
      (let e, _ = Lattice_boolfn.Expr.parse "a ^ b ^ c" in
       let g = Lattice_core.Compose.of_expr e in
       Report.row ~id:"Fig3" ~metric:"compositional (ref [2]) size" ~paper:"-"
         ~measured:(Printf.sprintf "%dx%d%s" g.Lattice_core.Grid.rows g.Lattice_core.Grid.cols
              (if S.Validate.realizes g S.Library.xor3 then "" else " INVALID"))
         ~note:"structural, no truth table needed" ());
    ]
  in
  let body =
    Printf.sprintf "Fig 3b (3x3, minimum):\n%s\n\nFig 3a (3x4):\n%s\n"
      (Lattice_core.Grid.to_string ~names S.Library.xor3_3x3)
      (Lattice_core.Grid.to_string ~names S.Library.xor3_3x4)
  in
  { Report.title = "Fig 3: XOR3 on switching lattices"; rows; body }

module Grid = Lattice_core.Grid
module Tt = Lattice_boolfn.Truthtable

let a = 0
and b = 1
and c = 2

let lit v p = Grid.Lit (v, p)

(* Fig 3b: minimum-size XOR3 with a constant-1 centre site. *)
let xor3_3x3 =
  Grid.create 3 3
    [|
      lit a true; lit b true; lit a false;
      lit c false; Grid.Const true; lit c true;
      lit a false; lit b false; lit a true;
    |]

(* Fig 3a: XOR3 on 3 x 4, literals only. *)
let xor3_3x4 =
  Grid.create 3 4
    [|
      lit a true; lit a true; lit a false; lit a false;
      lit b true; lit b false; lit b true; lit b false;
      lit c true; lit c false; lit c false; lit c true;
    |]

(* complementing c turns odd parity into even parity *)
let xnor3_3x3 =
  let flip_c = function
    | Grid.Lit (v, p) when v = c -> Grid.Lit (v, not p)
    | (Grid.Lit _ | Grid.Const _) as e -> e
  in
  Grid.create 3 3 (Array.map flip_c xor3_3x3.Grid.entries)

let maj3_2x3 =
  Grid.create 2 3 [| lit a true; lit a true; lit b true; lit b true; lit c true; lit c true |]

let xor3 = Tt.xor_n 3

let abc_names i = Lattice_boolfn.Sop.alpha_names i

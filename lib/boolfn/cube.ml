type t = { pos : int; neg : int }

exception Contradictory

let max_vars = Sys.int_size - 1

let one = { pos = 0; neg = 0 }

let of_masks ~pos ~neg =
  if pos land neg <> 0 then raise Contradictory;
  { pos; neg }

let and_literal c var polarity =
  if var < 0 || var >= max_vars then invalid_arg "Cube.and_literal: variable out of range";
  let bit = 1 lsl var in
  if polarity then of_masks ~pos:(c.pos lor bit) ~neg:c.neg
  else of_masks ~pos:c.pos ~neg:(c.neg lor bit)

let of_literals lits =
  List.fold_left (fun c (v, p) -> and_literal c v p) one lits

let literals c =
  let out = ref [] in
  for v = max_vars - 1 downto 0 do
    let bit = 1 lsl v in
    if c.pos land bit <> 0 then out := (v, true) :: !out
    else if c.neg land bit <> 0 then out := (v, false) :: !out
  done;
  !out

(* a implies b iff every literal of b appears in a *)
let implies a b = b.pos land lnot a.pos = 0 && b.neg land lnot a.neg = 0

let compare a b =
  match Int.compare a.pos b.pos with 0 -> Int.compare a.neg b.neg | c -> c

let to_string ~names c =
  match literals c with
  | [] -> "1"
  | lits ->
    String.concat " "
      (List.map (fun (v, p) -> if p then names v else names v ^ "'") lits)

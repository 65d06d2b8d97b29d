type t = { nvars : int; cubes : Cube.t list }

let check_nvars nvars =
  if nvars < 0 || nvars > Cube.max_vars then invalid_arg "Sop: unsupported variable count"

let zero nvars =
  check_nvars nvars;
  { nvars; cubes = [] }

let one nvars =
  check_nvars nvars;
  { nvars; cubes = [ Cube.one ] }

let of_cubes nvars cubes =
  check_nvars nvars;
  { nvars; cubes = List.sort_uniq Cube.compare cubes }

let cubes f = f.cubes
let nvars f = f.nvars
let product_count f = List.length f.cubes
let literal_count f = List.fold_left (fun acc c -> acc + Cube.size c) 0 f.cubes

(* keep a cube only if no *other* kept-or-candidate cube absorbs it;
   since [implies a b] means a's set contains b's, cube a is absorbed by b
   when [Cube.implies a b] with a <> b. *)
let absorb f =
  let arr = Array.of_list f.cubes in
  let n = Array.length arr in
  let keep = Array.make n true in
  for i = 0 to n - 1 do
    if keep.(i) then
      for j = 0 to n - 1 do
        if i <> j && keep.(i) && keep.(j) && Cube.implies arr.(i) arr.(j) then
          (* arr.(i) is a superset product; drop it unless equal (dedup already done) *)
          keep.(i) <- false
      done
  done;
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then kept := arr.(i) :: !kept
  done;
  { f with cubes = !kept }

let disjunction a b =
  if a.nvars <> b.nvars then invalid_arg "Sop.disjunction: variable-count mismatch";
  of_cubes a.nvars (a.cubes @ b.cubes)

let eval f assignment = List.exists (fun c -> Cube.eval c assignment) f.cubes

let equal_semantically a b =
  if a.nvars <> b.nvars then invalid_arg "Sop.equal_semantically: variable-count mismatch";
  let limit = 1 lsl a.nvars in
  let rec go m = m >= limit || (Bool.equal (eval a m) (eval b m) && go (m + 1)) in
  go 0

let to_string ~names f =
  match f.cubes with
  | [] -> "0"
  | cubes -> String.concat " + " (List.map (Cube.to_string ~names) cubes)

let default_names i = Printf.sprintf "x%d" (i + 1)

let alpha_names i =
  if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i)) else Printf.sprintf "v%d" i

(* DFS over chordless paths that touch the top row only at the start and the
   bottom row only at the end. [adjcount.(c)] tracks how many path cells are
   adjacent to cell [c]; a step from the head [h] to [c] keeps the path
   chordless iff [adjcount.(c) = 1] (only [h]). *)

let check_dims rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Paths: dimensions must be >= 1"

let iter_irredundant ~rows ~cols f =
  check_dims rows cols;
  let n = rows * cols in
  let visited = Array.make n false in
  let adjcount = Array.make n 0 in
  let stack = Array.make n 0 in
  let bump i delta =
    let r = i / cols and c = i mod cols in
    if r > 0 then adjcount.(i - cols) <- adjcount.(i - cols) + delta;
    if r < rows - 1 then adjcount.(i + cols) <- adjcount.(i + cols) + delta;
    if c > 0 then adjcount.(i - 1) <- adjcount.(i - 1) + delta;
    if c < cols - 1 then adjcount.(i + 1) <- adjcount.(i + 1) + delta
  in
  let rec extend depth head =
    let r = head / cols and c = head mod cols in
    if r = rows - 1 then f (Array.sub stack 0 depth)
    else begin
      let try_step next =
        let nr = next / cols in
        if (not visited.(next)) && adjcount.(next) = 1 && nr > 0 then begin
          visited.(next) <- true;
          bump next 1;
          stack.(depth) <- next;
          extend (depth + 1) next;
          bump next (-1);
          visited.(next) <- false
        end
      in
      if r < rows - 1 then try_step (head + cols);
      if c > 0 then try_step (head - 1);
      if c < cols - 1 then try_step (head + 1);
      if r > 0 then try_step (head - cols)
    end
  in
  for start = 0 to cols - 1 do
    visited.(start) <- true;
    bump start 1;
    stack.(0) <- start;
    extend 1 start;
    bump start (-1);
    visited.(start) <- false
  done

let count_irredundant_enum ~rows ~cols =
  let count = ref 0 in
  iter_irredundant ~rows ~cols (fun _ -> incr count);
  !count

let count_irredundant_zdd ~rows ~cols =
  check_dims rows cols;
  Zdd.count (Zdd.of_lattice ~rows ~cols)

(* The ZDD's node-table setup dominates on small lattices: the bench
   measures enumeration *faster* up to 7x7 (enum/zdd wall ratio 0.32 at
   7x7) and slower from 8x8 on (2.8 at 8x8, and growing without bound —
   enumeration is exponential in the path count). Auto-select by the
   measured crossover; both backends are pinned equal at the boundary
   by the parity tests. *)
let crossover_dim = 8

let use_enum ~rows ~cols = rows < crossover_dim && cols < crossover_dim

let count_irredundant ~rows ~cols =
  check_dims rows cols;
  if use_enum ~rows ~cols then count_irredundant_enum ~rows ~cols
  else count_irredundant_zdd ~rows ~cols

let length_histogram_enum ~rows ~cols =
  let hist = Array.make ((rows * cols) + 1) 0 in
  iter_irredundant ~rows ~cols (fun p -> hist.(Array.length p) <- hist.(Array.length p) + 1);
  hist

let length_histogram_zdd ~rows ~cols =
  check_dims rows cols;
  Zdd.count_by_size (Zdd.of_lattice ~rows ~cols)

let length_histogram ~rows ~cols =
  check_dims rows cols;
  if use_enum ~rows ~cols then length_histogram_enum ~rows ~cols
  else length_histogram_zdd ~rows ~cols

(* Reference implementation straight from the definition. *)
let irredundant_sets_brute ~rows ~cols =
  check_dims rows cols;
  let n = rows * cols in
  let visited = Array.make n false in
  let sets = Hashtbl.create 256 in
  let current = ref [] in
  let record () =
    let set = List.sort_uniq Int.compare !current in
    Hashtbl.replace sets set ()
  in
  let rec dfs head =
    let r = head / cols and c = head mod cols in
    if r = rows - 1 then record ();
    (* keep extending: longer simple paths are also products pre-absorption *)
    let step next =
      if not visited.(next) then begin
        visited.(next) <- true;
        current := next :: !current;
        dfs next;
        current := List.tl !current;
        visited.(next) <- false
      end
    in
    if r > 0 then step (head - cols);
    if r < rows - 1 then step (head + cols);
    if c > 0 then step (head - 1);
    if c < cols - 1 then step (head + 1)
  in
  for start = 0 to cols - 1 do
    visited.(start) <- true;
    current := [ start ];
    dfs start;
    current := [];
    visited.(start) <- false
  done;
  let all = Hashtbl.fold (fun set () acc -> set :: acc) sets [] in
  let subset a b =
    (* both sorted *)
    let rec go a b =
      match (a, b) with
      | [], _ -> true
      | _, [] -> false
      | x :: a', y :: b' -> if x = y then go a' b' else if x > y then go a b' else false
    in
    go a b
  in
  let minimal s = not (List.exists (fun s' -> s' <> s && subset s' s) all) in
  List.sort compare (List.filter minimal all)

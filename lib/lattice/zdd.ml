(* Zero-suppressed BDD of the irredundant-path family of an m x n lattice,
   built by Knuth-style frontier-based search (simpath, adapted to
   *induced* paths) over the cells in row-major order.

   A product of the lattice function is irredundant exactly when its cell
   set is an induced (chordless) path whose endpoints are its unique
   top-row cell and its unique bottom-row cell (see Paths). The frontier
   sweep decides one cell per ZDD variable; the state it carries is the
   sliding window of the last [cols] decided cells — for each window slot
   whether the cell is in the set, and if so its connected-component id
   and its current induced degree — plus two owner tags recording which
   component holds the top-row cell and the bottom-row cell. Because the
   subgraph is induced, an edge between two chosen cells always counts:
   choosing a cell with both its up- and left-neighbour chosen in the
   same component closes a cycle (reject), and any degree pushed past 2
   rejects, so chordality never has to be checked explicitly.

   A cell leaves the frontier when its last undecided neighbour is
   decided; at that moment its degree is final and must be exactly 1 on
   the top/bottom rows and 2 in between, and if it was the last cell of
   its component the component must be the one owning both the top and
   the bottom cell (the owners are then marked closed — the path is
   complete and every later cell must stay out).

   States are interned per level (canonical component renumbering by
   first slot occurrence), giving an unreduced level graph; a bottom-up
   pass applies the ZDD reduction (zero-suppress nodes whose hi-child is
   bottom, share equal (var, lo, hi) triples). Counting is a single DP
   over the reduced nodes with overflow-checked native-int addition. *)

exception Overflow

type t = {
  n_vars : int;
  (* reduced nodes, children-before-parents; ids 0 = bottom, 1 = top,
     node [k] has id [k + 2] *)
  var : int array;
  lo : int array;
  hi : int array;
  root : int;
}

(* growable int buffer (the CI toolchain predates Stdlib.Dynarray) *)
module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let push b v =
    if b.len = Array.length b.a then b.a <- Array.append b.a (Array.make b.len 0);
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
end

(* --- frontier state ----------------------------------------------------

   Bytes of length cols + 2: slot [c] describes the newest decided cell
   of column [c] ('\000' = not in the set, otherwise 1 + 3*comp + deg);
   byte [cols] / [cols+1] are the top/bottom owner ('\255' = unset,
   '\254' = closed, otherwise a component id). *)

let o_none = 255
let o_closed = 254

type scratch = {
  cols : int;
  rows : int;
  comp : int array;  (* per slot; -1 = absent *)
  deg : int array;
  remap : int array;  (* component renumbering table *)
  mutable top : int;  (* o_none / o_closed / comp id *)
  mutable bot : int;
}

let make_scratch ~rows ~cols =
  {
    cols;
    rows;
    comp = Array.make cols (-1);
    deg = Array.make cols 0;
    remap = Array.make (cols + 2) (-1);
    top = o_none;
    bot = o_none;
  }

let decode sc (state : Bytes.t) =
  for c = 0 to sc.cols - 1 do
    let b = Char.code (Bytes.unsafe_get state c) in
    if b = 0 then sc.comp.(c) <- -1
    else begin
      sc.comp.(c) <- (b - 1) / 3;
      sc.deg.(c) <- (b - 1) mod 3
    end
  done;
  sc.top <- Char.code (Bytes.get state sc.cols);
  sc.bot <- Char.code (Bytes.get state (sc.cols + 1))

(* canonical encoding: components renumbered by first slot occurrence *)
let encode sc =
  let out = Bytes.create (sc.cols + 2) in
  Array.fill sc.remap 0 (Array.length sc.remap) (-1);
  let next = ref 0 in
  let map k =
    if sc.remap.(k) < 0 then begin
      sc.remap.(k) <- !next;
      incr next
    end;
    sc.remap.(k)
  in
  for c = 0 to sc.cols - 1 do
    if sc.comp.(c) < 0 then Bytes.unsafe_set out c '\000'
    else Bytes.unsafe_set out c (Char.chr (1 + (3 * map sc.comp.(c)) + sc.deg.(c)))
  done;
  let owner k = if k = o_none || k = o_closed then k else map k in
  Bytes.set out sc.cols (Char.chr (owner sc.top));
  Bytes.set out (sc.cols + 1) (Char.chr (owner sc.bot));
  out

exception Reject

(* component [k] appears in some slot other than [skip]? *)
let comp_alive sc k ~skip =
  let alive = ref false in
  for c = 0 to sc.cols - 1 do
    if c <> skip && sc.comp.(c) = k then alive := true
  done;
  !alive

(* cell in slot [idx] leaves the frontier: its degree is final *)
let finalize sc ~row ~idx =
  let k = sc.comp.(idx) in
  if k >= 0 then begin
    let want = if row = 0 || row = sc.rows - 1 then 1 else 2 in
    if sc.deg.(idx) <> want then raise Reject;
    if not (comp_alive sc k ~skip:idx) then
      if sc.top = k && sc.bot = k then begin
        (* the path is complete; any other live component could never
           close (the endpoints are taken), so prune it right here *)
        for c = 0 to sc.cols - 1 do
          if c <> idx && sc.comp.(c) >= 0 then raise Reject
        done;
        sc.top <- o_closed;
        sc.bot <- o_closed
      end
      else raise Reject
  end;
  sc.comp.(idx) <- -1

(* decide cell (r, c); [sc] holds the decoded predecessor state and is
   mutated into the successor. Raises [Reject] for a dead branch. *)
let step sc ~r ~c ~chosen =
  let cols = sc.cols and rows = sc.rows in
  if chosen then begin
    (* a closed path admits no further cells; top/bottom cells are unique *)
    if sc.top = o_closed then raise Reject;
    if r = 0 && sc.top <> o_none then raise Reject;
    if r = rows - 1 && sc.bot <> o_none then raise Reject;
    let upc = r > 0 && sc.comp.(c) >= 0 in
    let leftc = c > 0 && sc.comp.(c - 1) >= 0 in
    if upc && leftc && sc.comp.(c) = sc.comp.(c - 1) then raise Reject (* cycle *);
    if upc then begin
      sc.deg.(c) <- sc.deg.(c) + 1;
      if sc.deg.(c) > 2 then raise Reject
    end;
    if leftc then begin
      sc.deg.(c - 1) <- sc.deg.(c - 1) + 1;
      if sc.deg.(c - 1) > 2 then raise Reject
    end;
    (* the up-neighbour leaves the frontier now (with its new degree);
       its component survives through the current cell, so no closure *)
    if r > 0 && upc then begin
      let want = if r - 1 = 0 then 1 else 2 in
      if sc.deg.(c) <> want then raise Reject
    end;
    let comp_new =
      if upc && leftc then begin
        (* merge: relabel the left component into the up component *)
        let ku = sc.comp.(c) and kl = sc.comp.(c - 1) in
        for i = 0 to cols - 1 do
          if sc.comp.(i) = kl then sc.comp.(i) <- ku
        done;
        if sc.top = kl then sc.top <- ku;
        if sc.bot = kl then sc.bot <- ku;
        ku
      end
      else if upc then sc.comp.(c)
      else if leftc then sc.comp.(c - 1)
      else cols (* fresh id; canonicalized by [encode] *)
    in
    sc.comp.(c) <- comp_new;
    sc.deg.(c) <- (if upc then 1 else 0) + if leftc then 1 else 0;
    if r = 0 then sc.top <- comp_new;
    if r = rows - 1 then sc.bot <- comp_new
  end
  else begin
    (* the up-neighbour leaves the frontier untouched *)
    if r > 0 then finalize sc ~row:(r - 1) ~idx:c else sc.comp.(c) <- -1
  end;
  (* in the bottom row the left neighbour (and, on the last cell, the
     cell itself) also has no undecided neighbours left *)
  if r = rows - 1 then begin
    if c > 0 then finalize sc ~row:r ~idx:(c - 1);
    if c = cols - 1 then finalize sc ~row:r ~idx:c
  end

(* --- construction ------------------------------------------------------ *)

let check_dims rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Zdd: dimensions must be >= 1"

(* rows = 1 degenerates to the singleton family { {c} : 0 <= c < cols } *)
let of_single_row cols =
  let var = Array.make cols 0 and lo = Array.make cols 0 and hi = Array.make cols 0 in
  (* node k+2 decides cell k: hi -> top, lo -> try the next cell *)
  for k = 0 to cols - 1 do
    var.(cols - 1 - k) <- k;
    lo.(cols - 1 - k) <- (if k = cols - 1 then 0 else cols - k);
    hi.(cols - 1 - k) <- 1
  done;
  { n_vars = cols; var; lo; hi; root = cols + 1 }

let of_lattice ~rows ~cols =
  check_dims rows cols;
  if rows = 1 then of_single_row cols
  else begin
    let n_vars = rows * cols in
    let sc = make_scratch ~rows ~cols in
    (* unreduced level graph: per level, lo/hi child references where
       0 / 1 are the terminals and k + 2 is node k of the next level *)
    let level_lo = Array.make n_vars [||] and level_hi = Array.make n_vars [||] in
    let start = Bytes.make (cols + 2) '\000' in
    Bytes.set start cols (Char.chr o_none);
    Bytes.set start (cols + 1) (Char.chr o_none);
    let states = ref [| start |] in
    for i = 0 to n_vars - 1 do
      let r = i / cols and c = i mod cols in
      let interned : (Bytes.t, int) Hashtbl.t = Hashtbl.create 1024 in
      let next_states = Buf.create () in
      let pool = ref [||] in
      let n_current = Array.length !states in
      let lo = Array.make n_current 0 and hi = Array.make n_current 0 in
      let child state chosen =
        decode sc state;
        match step sc ~r ~c ~chosen with
        | exception Reject -> 0
        | () ->
          if i = n_vars - 1 then if sc.top = o_closed then 1 else 0
          else begin
            let key = encode sc in
            match Hashtbl.find_opt interned key with
            | Some idx -> idx + 2
            | None ->
              let idx = next_states.Buf.len in
              Hashtbl.add interned key idx;
              if idx = Array.length !pool then
                pool :=
                  Array.append !pool (Array.make (Int.max 64 idx) start);
              !pool.(idx) <- key;
              Buf.push next_states idx;
              idx + 2
          end
      in
      Array.iteri
        (fun idx state ->
          lo.(idx) <- child state false;
          hi.(idx) <- child state true)
        !states;
      level_lo.(i) <- lo;
      level_hi.(i) <- hi;
      states := Array.sub !pool 0 next_states.Buf.len
    done;
    (* bottom-up ZDD reduction: zero-suppress hi = bottom, share nodes *)
    let unique : (int * int * int, int) Hashtbl.t = Hashtbl.create 1024 in
    let rvar = Buf.create () and rlo = Buf.create () and rhi = Buf.create () in
    let intern v l h =
      match Hashtbl.find_opt unique (v, l, h) with
      | Some id -> id
      | None ->
        let id = rvar.Buf.len + 2 in
        Buf.push rvar v;
        Buf.push rlo l;
        Buf.push rhi h;
        Hashtbl.add unique (v, l, h) id;
        id
    in
    let next_red = ref [||] in
    for i = n_vars - 1 downto 0 do
      let lo = level_lo.(i) and hi = level_hi.(i) in
      let m = Array.length lo in
      let red = Array.make m 0 in
      let resolve x = if x < 2 then x else !next_red.(x - 2) in
      for k = 0 to m - 1 do
        let l = resolve lo.(k) and h = resolve hi.(k) in
        red.(k) <- (if h = 0 then l else intern i l h)
      done;
      next_red := red
    done;
    {
      n_vars;
      var = Buf.to_array rvar;
      lo = Buf.to_array rlo;
      hi = Buf.to_array rhi;
      root = (if Array.length !next_red = 0 then 0 else !next_red.(0));
    }
  end

(* --- queries ----------------------------------------------------------- *)

let checked_add a b =
  let s = a + b in
  if s < 0 then raise Overflow;
  s

let count t =
  let m = Array.length t.var in
  let c = Array.make (m + 2) 0 in
  c.(1) <- 1;
  for id = 2 to m + 1 do
    c.(id) <- checked_add c.(t.lo.(id - 2)) c.(t.hi.(id - 2))
  done;
  c.(t.root)

let count_by_size t =
  let m = Array.length t.var in
  let width = t.n_vars + 1 in
  let zero = Array.make width 0 in
  let top = Array.make width 0 in
  top.(0) <- 1;
  let c = Array.make (m + 2) zero in
  c.(1) <- top;
  for id = 2 to m + 1 do
    let l = c.(t.lo.(id - 2)) and h = c.(t.hi.(id - 2)) in
    let v = Array.make width 0 in
    for k = 0 to width - 1 do
      v.(k) <- l.(k);
      if k > 0 then v.(k) <- checked_add v.(k) h.(k - 1)
    done;
    c.(id) <- v
  done;
  Array.copy c.(t.root)

type entry = Lit of int * bool | Const of bool

type t = { rows : int; cols : int; entries : entry array }

let create rows cols entries =
  if rows < 1 || cols < 1 then invalid_arg "Grid.create: dimensions must be >= 1";
  if Array.length entries <> rows * cols then invalid_arg "Grid.create: entry count mismatch";
  { rows; cols; entries }

let parse_cell intern cell =
  let cell = String.trim cell in
  if cell = "" then invalid_arg "Grid.of_strings: empty cell";
  if cell = "0" then Const false
  else if cell = "1" then Const true
  else begin
    let len = String.length cell in
    let primes = ref 0 in
    while !primes < len && cell.[len - 1 - !primes] = '\'' do
      incr primes
    done;
    let name = String.sub cell 0 (len - !primes) in
    if name = "" then invalid_arg "Grid.of_strings: bare prime";
    Lit (intern name, !primes land 1 = 0)
  end

let of_strings rows =
  (match rows with [] -> invalid_arg "Grid.of_strings: no rows" | _ :: _ -> ());
  let names = ref [] in
  let count = ref 0 in
  let intern name =
    match List.assoc_opt name !names with
    | Some i -> i
    | None ->
      let i = !count in
      names := (name, i) :: !names;
      incr count;
      i
  in
  let cols =
    match rows with
    | r :: _ -> List.length r
    | [] -> assert false
  in
  let entries =
    List.concat_map
      (fun row ->
        if List.length row <> cols then invalid_arg "Grid.of_strings: ragged rows";
        List.map (parse_cell intern) row)
      rows
  in
  let g = create (List.length rows) cols (Array.of_list entries) in
  let arr = Array.make !count "" in
  List.iter (fun (name, i) -> arr.(i) <- name) !names;
  (g, arr)

let site t r c =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then invalid_arg "Grid.site: out of range";
  (r * t.cols) + c

let entry t r c = t.entries.(site t r c)
let size t = t.rows * t.cols

let nvars t =
  Array.fold_left
    (fun acc e -> match e with Lit (v, _) -> Int.max acc (v + 1) | Const _ -> acc)
    0 t.entries

let eval_entry e assignment =
  match e with
  | Const b -> b
  | Lit (v, polarity) ->
    let bit = assignment land (1 lsl v) <> 0 in
    Bool.equal bit polarity

let on_pattern t assignment = Array.map (fun e -> eval_entry e assignment) t.entries

let entry_to_string ~names e =
  match e with
  | Const false -> "0"
  | Const true -> "1"
  | Lit (v, true) -> names v
  | Lit (v, false) -> names v ^ "'"

let to_string ~names t =
  let buf = Buffer.create 64 in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      if c > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%-3s" (entry_to_string ~names t.entries.((r * t.cols) + c)))
    done;
    if r < t.rows - 1 then Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

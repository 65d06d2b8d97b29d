(* Values as printed in paper Table I; rows indexed by m = 2..9, columns by
   n = 2..9. *)
let published =
  [|
    [| 2; 3; 4; 5; 6; 7; 8; 9 |];
    [| 4; 9; 16; 25; 36; 49; 64; 81 |];
    [| 6; 17; 36; 67; 118; 203; 344; 575 |];
    [| 10; 37; 94; 205; 436; 957; 2146; 4773 |];
    [| 16; 77; 236; 621; 1668; 4883; 14880; 44331 |];
    [| 26; 163; 602; 1905; 6562; 26317; 110838; 446595 |];
    [| 42; 343; 1528; 5835; 25686; 139231; 797048; 4288707 |];
    [| 68; 723; 3882; 17873; 100294; 723153; 5509834; 38930447 |];
  |]

let memo : (int * int, int) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()

let find_memo key =
  Mutex.lock memo_lock;
  let v = Hashtbl.find_opt memo key in
  Mutex.unlock memo_lock;
  v

(* The engine's Domain pool counts concurrently; the memo is shared, so
   reads and inserts take the lock while the (pure, idempotent) count
   itself runs outside it — two domains racing on the same fresh key at
   worst both compute it and agree. *)
let count ~rows ~cols =
  match find_memo (rows, cols) with
  | Some v -> v
  | None ->
    let v = Paths.count_irredundant ~rows ~cols in
    Mutex.lock memo_lock;
    Hashtbl.replace memo (rows, cols) v;
    Mutex.unlock memo_lock;
    v

let paper_value ~rows ~cols =
  if rows < 2 || rows > 9 || cols < 2 || cols > 9 then
    invalid_arg "Table1.paper_value: published range is 2..9";
  published.(rows - 2).(cols - 2)

let render ?(max_dim = 9) ~compute () =
  (* computed tables may extend past the published 9 x 9, up to 12 x 12 *)
  let cap = if compute then 12 else 9 in
  let max_dim = Int.min cap (Int.max 2 max_dim) in
  let width = if max_dim <= 9 then 10 else 16 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "m/n ";
  for n = 2 to max_dim do
    Buffer.add_string buf (Printf.sprintf "%*d" width n)
  done;
  Buffer.add_char buf '\n';
  for m = 2 to max_dim do
    Buffer.add_string buf (Printf.sprintf "%-4d" m);
    for n = 2 to max_dim do
      let v = if compute then count ~rows:m ~cols:n else paper_value ~rows:m ~cols:n in
      Buffer.add_string buf (Printf.sprintf "%*d" width v)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

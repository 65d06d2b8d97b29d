type t = float array

let zeros n = Array.make n 0.0
let copy = Array.copy

let check_same_length name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let dot a b =
  check_same_length "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let axpy alpha x y =
  check_same_length "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let scale alpha v = Array.map (fun x -> alpha *. x) v

let add a b =
  check_same_length "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_same_length "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let norm2 v = sqrt (dot v v)

let norm_inf v = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need at least 2 points";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. step))

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      m.data.((r * cols) + c) <- f r c
    done
  done;
  m

let copy m = { m with data = Array.copy m.data }
let get m r c = m.data.((r * m.cols) + c)
let set m r c x = m.data.((r * m.cols) + c) <- x
let add_to m r c x = m.data.((r * m.cols) + c) <- m.data.((r * m.cols) + c) +. x

let mat_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mat_vec: size mismatch";
  let out = Array.make m.rows 0.0 in
  for r = 0 to m.rows - 1 do
    let base = r * m.cols in
    let acc = ref 0.0 in
    for c = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + c) *. v.(c))
    done;
    out.(r) <- !acc
  done;
  out

let mat_mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mat_mul: size mismatch";
  let out = create a.rows b.cols in
  for r = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((r * a.cols) + k) in
      if aik <> 0.0 then
        let bbase = k * b.cols in
        let obase = r * b.cols in
        for c = 0 to b.cols - 1 do
          out.data.(obase + c) <- out.data.(obase + c) +. (aik *. b.data.(bbase + c))
        done
    done
  done;
  out

let transpose m = init m.cols m.rows (fun r c -> get m c r)

let check xs ys =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Interp: empty input";
  if n <> Array.length ys then invalid_arg "Interp: length mismatch"

let lookup xs ys x =
  check xs ys;
  let n = Array.length xs in
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    (* binary search for the bracketing segment *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    let x0 = xs.(!lo) and x1 = xs.(!hi) in
    if x1 = x0 then ys.(!lo)
    else
      let t = (x -. x0) /. (x1 -. x0) in
      ys.(!lo) +. (t *. (ys.(!hi) -. ys.(!lo)))
  end

let crossings xs ys level =
  check xs ys;
  let n = Array.length xs in
  let out = ref [] in
  let last_hit = ref neg_infinity in
  let push x =
    if x > !last_hit then begin
      out := x :: !out;
      last_hit := x
    end
  in
  for i = 0 to n - 2 do
    let y0 = ys.(i) -. level and y1 = ys.(i + 1) -. level in
    if y0 = 0.0 then push xs.(i)
    else if (y0 < 0.0 && y1 > 0.0) || (y0 > 0.0 && y1 < 0.0) then begin
      let t = y0 /. (y0 -. y1) in
      push (xs.(i) +. (t *. (xs.(i + 1) -. xs.(i))))
    end
  done;
  if n >= 2 && ys.(n - 1) = level then push xs.(n - 1);
  if n = 1 && ys.(0) = level then push xs.(0);
  List.rev !out

let first_crossing xs ys level =
  match crossings xs ys level with [] -> None | x :: _ -> Some x

let bisect f lo hi ~tol =
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else if flo *. fhi > 0.0 then invalid_arg "Interp.bisect: no sign change in bracket"
  else begin
    let lo = ref lo and hi = ref hi and flo = ref flo in
    while !hi -. !lo > tol do
      let mid = 0.5 *. (!lo +. !hi) in
      let fmid = f mid in
      if fmid = 0.0 then begin
        lo := mid;
        hi := mid
      end
      else if !flo *. fmid < 0.0 then hi := mid
      else begin
        lo := mid;
        flo := fmid
      end
    done;
    0.5 *. (!lo +. !hi)
  end

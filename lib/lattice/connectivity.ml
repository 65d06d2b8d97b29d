let connected_bfs ~rows ~cols on =
  if Array.length on <> rows * cols then invalid_arg "Connectivity: pattern size mismatch";
  let visited = Array.make (rows * cols) false in
  let queue = Queue.create () in
  for c = 0 to cols - 1 do
    if on.(c) then begin
      visited.(c) <- true;
      Queue.add c queue
    end
  done;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let r = i / cols in
    if r = rows - 1 then found := true
    else begin
      let push j =
        if on.(j) && not visited.(j) then begin
          visited.(j) <- true;
          Queue.add j queue
        end
      in
      let c = i mod cols in
      if r > 0 then push (i - cols);
      if r < rows - 1 then push (i + cols);
      if c > 0 then push (i - 1);
      if c < cols - 1 then push (i + 1)
    end
  done;
  !found

let connected_union_find ~rows ~cols on =
  if Array.length on <> rows * cols then invalid_arg "Connectivity: pattern size mismatch";
  let n = rows * cols in
  let top = n and bottom = n + 1 in
  let parent = Array.init (n + 2) (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  for i = 0 to n - 1 do
    if on.(i) then begin
      let r = i / cols and c = i mod cols in
      if r = 0 then union i top;
      if r = rows - 1 then union i bottom;
      if c > 0 && on.(i - 1) then union i (i - 1);
      if r > 0 && on.(i - cols) then union i (i - cols)
    end
  done;
  find top = find bottom

let eval grid assignment =
  let on = Grid.on_pattern grid assignment in
  connected_bfs ~rows:grid.Grid.rows ~cols:grid.Grid.cols on

let table_of_patterns ~rows ~cols =
  let n = rows * cols in
  if n > 20 then invalid_arg "Connectivity.table_of_patterns: lattice too large";
  let size = 1 lsl n in
  let table = Bytes.make size '\000' in
  let on = Array.make n false in
  for pattern = 0 to size - 1 do
    for i = 0 to n - 1 do
      on.(i) <- pattern land (1 lsl i) <> 0
    done;
    if connected_bfs ~rows ~cols on then Bytes.set table pattern '\001'
  done;
  table

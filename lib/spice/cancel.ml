type reason = Deadline | Requested

let reason_name = function Deadline -> "deadline" | Requested -> "requested"

exception Cancelled of reason

type t = {
  deadline_ns : int;  (* absolute monotonic ns; max_int = no deadline *)
  flag : bool Atomic.t;
  parent : t option;
}

let none = { deadline_ns = max_int; flag = Atomic.make false; parent = None }

let make ~deadline_ns parent =
  let parent = match parent with Some p when p == none -> None | p -> p in
  { deadline_ns; flag = Atomic.make false; parent }

let create ?parent () = make ~deadline_ns:max_int parent

let with_deadline ?parent ~seconds () =
  let now = Lattice_obs.Clock.now_ns () in
  let delta_ns =
    if seconds >= float_of_int (max_int - now) /. 1e9 then max_int - now
    else int_of_float (Float.max 0.0 (seconds *. 1e9))
  in
  make ~deadline_ns:(now + delta_ns) parent

let of_deadline_s = function None -> none | Some seconds -> with_deadline ~seconds ()

let cancel t = if t != none then Atomic.set t.flag true

let rec state t =
  if t == none then None
  else if Atomic.get t.flag then Some Requested
  else if t.deadline_ns <> max_int && Lattice_obs.Clock.now_ns () >= t.deadline_ns then
    Some Deadline
  else match t.parent with None -> None | Some p -> state p

let is_cancelled t = state t <> None

let check t = match state t with None -> () | Some r -> raise (Cancelled r)

let deadline_ns t = if t.deadline_ns = max_int then None else Some t.deadline_ns

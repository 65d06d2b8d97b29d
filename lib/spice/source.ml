type t =
  | Dc of float
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list
  | Sin of {
      offset : float;
      amplitude : float;
      freq : float;
      delay : float;
      damping : float;
    }

let pulse_value ~v1 ~v2 ~delay ~rise ~fall ~width ~period t =
  if t < delay then v1
  else begin
    let tc = Float.rem (t -. delay) period in
    if tc < rise then v1 +. ((v2 -. v1) *. tc /. Float.max 1e-18 rise)
    else if tc < rise +. width then v2
    else if tc < rise +. width +. fall then
      v2 +. ((v1 -. v2) *. (tc -. rise -. width) /. Float.max 1e-18 fall)
    else v1
  end

let pwl_value points t =
  match points with
  | [] -> 0.0
  | (t0, v0) :: _ when t <= t0 -> v0
  | _ ->
    let rec go = function
      | [ (_, v) ] -> v
      | (t1, v1) :: ((t2, v2) :: _ as rest) ->
        if t <= t2 then
          if t2 = t1 then v2 else v1 +. ((v2 -. v1) *. (t -. t1) /. (t2 -. t1))
        else go rest
      | [] -> 0.0
    in
    go points

let value w t =
  match w with
  | Dc v -> v
  | Pulse { v1; v2; delay; rise; fall; width; period } ->
    pulse_value ~v1 ~v2 ~delay ~rise ~fall ~width ~period t
  | Pwl points -> pwl_value points t
  | Sin { offset; amplitude; freq; delay; damping } ->
    if t < delay then offset
    else
      let tau = t -. delay in
      offset
      +. amplitude *. Float.exp (-.damping *. tau)
         *. Float.sin (2.0 *. Float.pi *. freq *. tau)

(* a SPICE pulse rises right after [delay]; delaying by half a period makes
   the wave spend its first half-period at [low] *)
let square_wave ~low ~high ~period ?transition () =
  let tr = match transition with Some t -> t | None -> period /. 100.0 in
  Pulse
    {
      v1 = low;
      v2 = high;
      delay = period /. 2.0;
      rise = tr;
      fall = tr;
      width = (period /. 2.0) -. tr;
      period;
    }

let bit_clock ~vdd ~bit_time ~bit_index () =
  if bit_index < 0 then invalid_arg "Source.bit_clock: negative bit index";
  let half = bit_time *. float_of_int (1 lsl bit_index) in
  square_wave ~low:0.0 ~high:vdd ~period:(2.0 *. half) ~transition:(bit_time /. 50.0) ()

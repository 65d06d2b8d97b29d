type params = { base : Level1.params; theta : float; vc : float }

(* normalized carrier mobility, m^2/Vs *)
let mu = 0.05

let of_level1 ?(theta = 0.1) ?(vmax = 1e5) base =
  if theta < 0.0 then invalid_arg "Level3.of_level1: theta must be >= 0";
  if vmax <= 0.0 then invalid_arg "Level3.of_level1: vmax must be > 0";
  { base; theta; vc = vmax *. base.Level1.l /. mu }

let vdsat p ~vgs =
  let vov = Float.max 0.0 (vgs -. p.base.Level1.vth) in
  if vov = 0.0 then 0.0 else vov *. p.vc /. (vov +. p.vc)

let ids p ~vgs ~vds =
  if vds < 0.0 then invalid_arg "Level3.ids: vds must be >= 0";
  let vov = vgs -. p.base.Level1.vth in
  if vov <= 0.0 then 0.0
  else begin
    let beta = Level1.beta p.base /. (1.0 +. (p.theta *. vov)) in
    let vsat = vdsat p ~vgs in
    let triode v = beta *. ((vov -. (0.5 *. v)) *. v) /. (1.0 +. (v /. p.vc)) in
    if vds <= vsat then triode vds *. (1.0 +. (p.base.Level1.lambda *. vds))
    else triode vsat *. (1.0 +. (p.base.Level1.lambda *. vds))
  end

let derivative f x =
  let h = 1e-6 in
  let lo = Float.max 0.0 (x -. h) in
  (f (x +. h) -. f lo) /. (x +. h -. lo)

let gm p ~vgs ~vds = derivative (fun vgs -> ids p ~vgs ~vds) vgs

let gds p ~vgs ~vds = derivative (fun vds -> ids p ~vgs ~vds) vds

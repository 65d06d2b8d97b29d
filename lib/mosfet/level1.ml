type params = { kp : float; vth : float; lambda : float; w : float; l : float }

type region = Cutoff | Triode | Saturation

let[@inline] beta p = p.kp *. p.w /. p.l

let[@inline] check_vds vds =
  if vds < 0.0 then invalid_arg "Level1: vds must be >= 0"

let[@inline] region p ~vgs ~vds =
  check_vds vds;
  let vov = vgs -. p.vth in
  if vov <= 0.0 then Cutoff else if vds <= vov then Triode else Saturation

let[@inline] ids p ~vgs ~vds =
  match region p ~vgs ~vds with
  | Cutoff -> 0.0
  | Triode ->
    let vov = vgs -. p.vth in
    beta p *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. (1.0 +. (p.lambda *. vds))
  | Saturation ->
    let vov = vgs -. p.vth in
    0.5 *. beta p *. vov *. vov *. (1.0 +. (p.lambda *. vds))

(* All-float workspace so inputs and outputs cross function boundaries as
   unboxed record fields instead of boxed float arguments: the circuit
   engine's Newton inner loop runs linearization allocation-free. The
   current below restates [ids] with identical expressions (same
   operation order, so results are bit-identical to it); the unit tests
   pin the equivalence and check gm/gds against numeric derivatives. *)
type workspace = {
  mutable w_vgs : float;
  mutable w_vds : float;
  mutable w_ids : float;
  mutable w_gm : float;
  mutable w_gds : float;
}

let workspace_create () = { w_vgs = 0.0; w_vds = 0.0; w_ids = 0.0; w_gm = 0.0; w_gds = 0.0 }

let linearize (w : workspace) p =
  let vgs = w.w_vgs and vds = w.w_vds in
  if vds < 0.0 then invalid_arg "Level1: vds must be >= 0";
  let vov = vgs -. p.vth in
  if vov <= 0.0 then begin
    w.w_ids <- 0.0;
    w.w_gm <- 0.0;
    w.w_gds <- 0.0
  end
  else begin
    let b = p.kp *. p.w /. p.l in
    if vds <= vov then begin
      w.w_ids <- b *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. (1.0 +. (p.lambda *. vds));
      w.w_gm <- b *. vds *. (1.0 +. (p.lambda *. vds));
      w.w_gds <-
        (b *. (vov -. vds) *. (1.0 +. (p.lambda *. vds)))
        +. (b *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. p.lambda)
    end
    else begin
      w.w_ids <- 0.5 *. b *. vov *. vov *. (1.0 +. (p.lambda *. vds));
      w.w_gm <- b *. vov *. (1.0 +. (p.lambda *. vds));
      w.w_gds <- 0.5 *. b *. vov *. vov *. p.lambda
    end
  end

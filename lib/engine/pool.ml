type t = { domains : int }

let env_domains () =
  match Sys.getenv_opt "FTL_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_domains () =
  match env_domains () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let create ?domains () =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { domains }

let domains t = t.domains

(* about 8 claims per worker: one fetch-and-add amortized over the
   chunk, small enough that the tail stays balanced *)
let chunk_size ~domains ~n = Int.max 1 (n / (8 * domains))

(* Claim indices in chunks and run [body] on each claimed index until
   [stop ()] flips. [body] must not raise. An empty or one-job batch
   runs on the calling domain: nothing to share, nothing to spawn. *)
let drive t ~n ~stop ~body =
  if t.domains = 1 || n <= 1 then begin
    let i = ref 0 in
    while !i < n && not (stop ()) do
      body !i;
      incr i
    done
  end
  else begin
    let chunk = chunk_size ~domains:t.domains ~n in
    let next = Atomic.make 0 in
    (* spawned domains inherit the submitting thread's request context
       so solves they run are attributed to the right request *)
    let ctx = Lattice_obs.Trace.current_context () in
    let worker () =
      Lattice_obs.Trace.with_context_opt ctx @@ fun () ->
      let sp =
        if Lattice_obs.Trace.on () then Lattice_obs.Trace.begin_span ~cat:"engine" "pool.worker"
        else Lattice_obs.Trace.null
      in
      let running = ref true in
      while !running do
        if stop () then running := false
        else begin
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= n then running := false
          else begin
            let hi = Int.min n (lo + chunk) in
            let i = ref lo in
            while !i < hi && not (stop ()) do
              body !i;
              incr i
            done
          end
        end
      done;
      Lattice_obs.Trace.end_span sp
    in
    (* the calling domain is worker 0 *)
    let spawned = Int.min (t.domains - 1) (n - 1) in
    let others = Array.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join others
  end

type exn_info = { printed : string; backtrace : string }

type 'a outcome = Done of 'a | Failed of exn_info | Timed_out | Cancelled

let map_outcomes t ?(cancel = Cancel.none) ~n f =
  if n < 0 then invalid_arg "Pool.map_outcomes: negative n";
  let out = Array.make n Cancelled in
  let body i =
    out.(i) <-
      (if Cancel.is_cancelled cancel then Cancelled
       else
         match f i with
         | v -> Done v
         | exception Cancel.Cancelled Cancel.Deadline -> Timed_out
         | exception Cancel.Cancelled Cancel.Requested -> Cancelled
         | exception e ->
           let printed = Printexc.to_string e in
           let backtrace = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
           Failed { printed; backtrace })
  in
  drive t ~n ~stop:(fun () -> Cancel.is_cancelled cancel) ~body;
  out

type kind = Span | Instant

type event = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  tid : int;
  ts_ns : int;
  mutable dur_ns : int;
  args : (string * string) list;
  kind : kind;
}

let enabled =
  let from_env =
    match Sys.getenv_opt "FTL_TRACE" with
    | Some s when String.trim s <> "" && String.trim s <> "0" -> true
    | Some _ | None -> false
  in
  Atomic.make from_env

let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

(* All timestamps are relative to this process-wide epoch so exported
   traces start near t = 0. *)
let epoch = Clock.now_ns ()
let next_id = Atomic.make 0

type buf = {
  mutable dom : int;
  mutable events : event array;
  mutable len : int;
  mutable stack : event list; (* open spans, innermost first *)
}

let dummy =
  { id = -1; parent = -1; name = ""; cat = ""; tid = 0; ts_ns = 0; dur_ns = 0; args = []; kind = Instant }

(* Every buffer ever created, for {!events}/{!reset}. Pushes are
   unsynchronized, so unlike the flight rings a buffer never has two
   live writers: a domain hands its buffer to [free] when it exits and
   the next domain to record adopts it. Events already recorded keep
   their own [tid] and stay exported; new ones append. There is thus
   one buffer per concurrently live domain, however many domains are
   spawned. Adoption and hand-back happen once per domain (DLS init,
   at_exit), so the mutex is never on a hot path. *)
let registry : buf list ref = ref []
let free : buf list ref = ref []
let registry_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let dom = (Domain.self () :> int) in
      Mutex.lock registry_lock;
      let b =
        match !free with
        | b :: rest ->
          free := rest;
          b.dom <- dom;
          b
        | [] ->
          let b = { dom; events = Array.make 256 dummy; len = 0; stack = [] } in
          registry := b :: !registry;
          b
      in
      Mutex.unlock registry_lock;
      Domain.at_exit (fun () ->
          (* spans the domain left open are never closed *)
          b.stack <- [];
          Mutex.lock registry_lock;
          free := b :: !free;
          Mutex.unlock registry_lock);
      b)

let buf () = Domain.DLS.get dls_key

(* the tags of the request the thread serves are stamped into every span *)
let ctx_args args =
  match Metrics.Request.current () with
  | None -> args
  | Some r -> Metrics.Request.tags r @ args

let push b e =
  if b.len = Array.length b.events then begin
    let bigger = Array.make (2 * b.len) dummy in
    Array.blit b.events 0 bigger 0 b.len;
    b.events <- bigger
  end;
  b.events.(b.len) <- e;
  b.len <- b.len + 1

type token = int

let null = -1

(* Spans are created when either sink wants them: the opt-in trace
   buffers ([on ()]) or the always-on flight recorder ([Ring.on ()]).
   Buffer pushes stay gated on [on ()] so {!events} is unchanged when
   tracing is off; the ring is fed at close time, when the duration is
   known. *)
let recording () = on () || Ring.on ()

let ring_record e =
  if Ring.on () then
    Ring.record
      { Ring.name = e.name; cat = e.cat; dom = e.tid; ts_ns = e.ts_ns; dur_ns = e.dur_ns; args = e.args }

let begin_span ?(cat = "") ?(args = []) name =
  if not (recording ()) then null
  else begin
    let b = buf () in
    let parent = match b.stack with [] -> -1 | p :: _ -> p.id in
    let e =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent;
        name;
        cat;
        tid = b.dom;
        ts_ns = Clock.now_ns () - epoch;
        dur_ns = -1;
        args = ctx_args args;
        kind = Span;
      }
    in
    if on () then push b e;
    b.stack <- e :: b.stack;
    e.id
  end

let end_span tok =
  if tok <> null then begin
    let b = buf () in
    let t1 = Clock.now_ns () - epoch in
    (* pop to the matching span, closing anything an exception left open *)
    let rec pop = function
      | [] -> []
      | e :: rest ->
        e.dur_ns <- t1 - e.ts_ns;
        ring_record e;
        if e.id = tok then rest else pop rest
    in
    b.stack <- pop b.stack
  end

let with_span ?cat ?args name f =
  if not (recording ()) then f ()
  else begin
    let tok = begin_span ?cat ?args name in
    Fun.protect ~finally:(fun () -> end_span tok) f
  end

let complete ?(cat = "") ?(args = []) ~name ~t0_ns ~t1_ns () =
  if recording () then begin
    let b = buf () in
    let parent = match b.stack with [] -> -1 | p :: _ -> p.id in
    let e =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent;
        name;
        cat;
        tid = b.dom;
        ts_ns = t0_ns - epoch;
        dur_ns = t1_ns - t0_ns;
        args = ctx_args args;
        kind = Span;
      }
    in
    if on () then push b e;
    ring_record e
  end

let instant ?(cat = "") ?(args = []) name =
  if on () then begin
    let b = buf () in
    let parent = match b.stack with [] -> -1 | p :: _ -> p.id in
    push b
      {
        id = Atomic.fetch_and_add next_id 1;
        parent;
        name;
        cat;
        tid = b.dom;
        ts_ns = Clock.now_ns () - epoch;
        dur_ns = 0;
        args = ctx_args args;
        kind = Instant;
      }
  end

let events () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  let out = ref [] in
  List.iter
    (fun b ->
      for i = b.len - 1 downto 0 do
        out := b.events.(i) :: !out
      done)
    bufs;
  List.sort
    (fun a b -> match Int.compare a.ts_ns b.ts_ns with 0 -> Int.compare a.id b.id | c -> c)
    !out

let reset () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  List.iter
    (fun b ->
      Array.fill b.events 0 b.len dummy;
      b.len <- 0;
      b.stack <- [])
    bufs

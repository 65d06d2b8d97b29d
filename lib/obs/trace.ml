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

(* The spans one systhread has open, innermost first; only that thread
   reads or writes [spans]. *)
type thread = { thread_id : int; mutable spans : event list }

(* [threads] holds a record per systhread with open spans. The daemon's
   readers and workers are threads on one domain, so one buffer serves
   several threads, and a span nests under, and closes, only spans of
   its own thread. A thread adds and removes its own record by
   compare-and-set, so a thread switch between the read and the write
   cannot drop another thread's record. *)
type buf = {
  mutable dom : int;
  mutable events : event array;
  mutable len : int;
  threads : thread list Atomic.t;
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
          let b = { dom; events = Array.make 256 dummy; len = 0; threads = Atomic.make [] } in
          registry := b :: !registry;
          b
      in
      Mutex.unlock registry_lock;
      Domain.at_exit (fun () ->
          (* spans the domain left open are never closed *)
          Atomic.set b.threads [];
          Mutex.lock registry_lock;
          free := b :: !free;
          Mutex.unlock registry_lock);
      b)

let buf () = Domain.DLS.get dls_key

(* what [own] answers for a thread with no record; never written *)
let no_thread = { thread_id = -1; spans = [] }

let rec find tid = function
  | [] -> no_thread
  | th :: rest -> if th.thread_id = tid then th else find tid rest

let own b = find (Thread.id (Thread.self ())) (Atomic.get b.threads)
let innermost th = match th.spans with [] -> -1 | p :: _ -> p.id

(* the calling thread's record, added when it has none *)
let rec thread b =
  let th = own b in
  if th != no_thread then th
  else begin
    let cur = Atomic.get b.threads in
    let th = { thread_id = Thread.id (Thread.self ()); spans = [] } in
    if Atomic.compare_and_set b.threads cur (th :: cur) then th else thread b
  end

(* drop a record whose spans are all closed, unless it is the buffer's
   only one: a domain with one recording thread keeps it, so its root
   spans cost no compare-and-set *)
let rec retire b th =
  match Atomic.get b.threads with
  | [ _ ] | [] -> ()
  | cur ->
    if not (Atomic.compare_and_set b.threads cur (List.filter (fun t -> t != th) cur)) then
      retire b th

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
    let th = thread b in
    let e =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent = innermost th;
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
    th.spans <- e :: th.spans;
    e.id
  end

let rec is_open tok = function [] -> false | e :: rest -> e.id = tok || is_open tok rest

(* pop to [tok], closing anything an exception left open above it *)
let rec close_to tok t1 = function
  | [] -> []
  | e :: rest ->
    e.dur_ns <- t1 - e.ts_ns;
    ring_record e;
    if e.id = tok then rest else close_to tok t1 rest

let end_span tok =
  if tok <> null then begin
    let b = buf () in
    let th = own b in
    (* a token this thread no longer has open closes nothing *)
    if is_open tok th.spans then begin
      th.spans <- close_to tok (Clock.now_ns () - epoch) th.spans;
      match th.spans with [] -> retire b th | _ :: _ -> ()
    end
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
    let e =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent = innermost (own b);
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
    push b
      {
        id = Atomic.fetch_and_add next_id 1;
        parent = innermost (own b);
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
      Atomic.set b.threads [])
    bufs

(* Flight recorder: an always-on, fixed-size per-domain ring of the
   most recently completed spans. Unlike the opt-in {!Trace} buffers,
   the rings never grow and never stop recording, so when a request
   fails there is retroactive evidence of what the process was doing.

   Each domain records into one ring; serve workers are systhreads
   sharing domain 0's ring and domains can share a table slot, so the
   write cursor is an atomic fetch-and-add.
   Slot writes themselves are unsynchronized — a lost race overwrites
   one record with a newer one, which is exactly the ring's contract.
   The only allocation on the recording path is the span record
   itself. *)

type span = {
  name : string;
  cat : string;
  dom : int;  (** recording domain *)
  ts_ns : int;  (** start, ns since the trace epoch *)
  dur_ns : int;
  args : (string * string) list;
}

(* power of two so the cursor wraps with a mask, not a division *)
let capacity = 512
let mask = capacity - 1

let enabled =
  let from_env =
    match Sys.getenv_opt "FTL_FLIGHT" with
    | Some s when String.trim s = "0" -> false
    | Some _ | None -> true
  in
  Atomic.make from_env

let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

let dummy = { name = ""; cat = ""; dom = -1; ts_ns = 0; dur_ns = 0; args = [] }

type ring = { slots : span array; cursor : int Atomic.t }

(* A fixed table of rings indexed by domain id modulo [max_rings]: domain
   ids only grow, so domains spawned one after another take the slots in
   turn and a ring is reused only after [max_rings - 1] later domains
   have claimed the others. The process holds at most [max_rings] rings
   however many domains it spawns, and an exited domain's spans stay
   dumpable until its slot comes round again. Domains that share a slot
   share the atomic cursor. A ring is claimed once per domain (DLS
   init), never on a hot path. *)
let max_rings = 16
let table : ring option array = Array.make max_rings None
let table_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let i = (Domain.self () :> int) mod max_rings in
      Mutex.lock table_lock;
      let r =
        match table.(i) with
        | Some r -> r
        | None ->
          let r = { slots = Array.make capacity dummy; cursor = Atomic.make 0 } in
          table.(i) <- Some r;
          r
      in
      Mutex.unlock table_lock;
      r)

let record span =
  if Atomic.get enabled then begin
    let r = Domain.DLS.get dls_key in
    let i = Atomic.fetch_and_add r.cursor 1 in
    r.slots.(i land mask) <- span
  end

let rings () =
  Mutex.lock table_lock;
  let rs = Array.to_list table in
  Mutex.unlock table_lock;
  List.filter_map Fun.id rs

let dump () =
  let out = ref [] in
  List.iter
    (fun r ->
      let c = Atomic.get r.cursor in
      let n = Int.min c capacity in
      (* oldest surviving slot first *)
      for k = c - n to c - 1 do
        let s = r.slots.(k land mask) in
        if s != dummy then out := s :: !out
      done)
    (rings ());
  List.sort (fun a b -> Int.compare a.ts_ns b.ts_ns) !out

let recorded () =
  List.fold_left (fun acc r -> acc + Int.min (Atomic.get r.cursor) capacity) 0 (rings ())

let reset () =
  List.iter
    (fun r ->
      Atomic.set r.cursor 0;
      Array.fill r.slots 0 capacity dummy)
    (rings ())

(* --- serialization ------------------------------------------------------ *)

(* Chrome wants microsecond floats; ns / 1e3 keeps sub-us precision. *)
let us ns = Json.Float (float_of_int ns /. 1e3)

let chrome_event ~ph ?(fields = []) ~pid s =
  let str v = Json.String v in
  let cat = if s.cat = "" then "default" else s.cat in
  Json.Obj
    ([ ("name", str s.name); ("cat", str cat); ("ph", str ph) ]
    @ fields
    @ [ ("pid", Json.Int pid); ("tid", Json.Int s.dom); ("ts", us s.ts_ns) ]
    @ (if ph = "X" then [ ("dur", us (Int.max 0 s.dur_ns)) ] else [])
    @
    if s.args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, str v)) s.args)) ])

let dump_jsonl () =
  let line s = Json.to_string (chrome_event ~ph:"X" ~pid:1 s) ^ "\n" in
  String.concat "" (List.map line (dump ()))

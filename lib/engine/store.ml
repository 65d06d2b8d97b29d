module Metrics = Lattice_obs.Metrics
module Trace = Lattice_obs.Trace

type stats = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
  errors : int;
}

type 'a t = {
  dir : string;
  temp_seq : int Atomic.t;
  scope : Metrics.Scope.t;
  hits : Metrics.Scope.counter;
  misses : Metrics.Scope.counter;
  writes : Metrics.Scope.counter;
  corrupt : Metrics.Scope.counter;
  errors : Metrics.Scope.counter;
}

let magic = "FTLSTORE1"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir =
  if dir = "" then invalid_arg "Store.open_: empty directory";
  mkdir_p dir;
  let scope = Metrics.Scope.create ~registry:"engine.store" () in
  let counter = Metrics.Scope.counter scope in
  {
    dir;
    temp_seq = Atomic.make 0;
    scope;
    hits = counter "hits";
    misses = counter "misses";
    writes = counter "writes";
    corrupt = counter "corrupt";
    errors = counter "errors";
  }

let shard_of hex = String.sub hex 0 2

let entry_path t ~key =
  let hex = Digest.to_hex (Digest.string key) in
  Filename.concat (Filename.concat t.dir (shard_of hex)) (hex ^ ".entry")

(* Anything wrong with an entry file's framing or checksum, and the
   identity (device, inode) of the file that was read. *)
exception Corrupt of string * (int * int)

let identity (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino)

let read_entry ~key path =
  In_channel.with_open_bin path (fun ic ->
      let id = identity (Unix.fstat (Unix.descr_of_in_channel ic)) in
      let corrupt why = raise (Corrupt (why, id)) in
      let header_line () =
        match In_channel.input_line ic with Some l -> l | None -> corrupt "truncated header"
      in
      if header_line () <> magic then corrupt "bad magic";
      if header_line () <> key then corrupt "key mismatch";
      let len =
        match int_of_string_opt (header_line ()) with
        | Some n when n >= 0 -> n
        | Some _ | None -> corrupt "bad length"
      in
      let digest = header_line () in
      let payload =
        match In_channel.really_input_string ic len with
        | Some s -> s
        | None -> corrupt "truncated payload"
      in
      if In_channel.input_char ic <> None then corrupt "trailing bytes";
      if Digest.to_hex (Digest.string payload) <> digest then corrupt "checksum mismatch";
      match Marshal.from_string payload 0 with
      | v -> v
      | exception _ -> corrupt "unmarshalable payload")

(* Moves the entry file at [path] out of its slot and deletes it, and
   says whether that file was the one with identity [id]. Only one
   reader can move a given file, so readers that verified the same torn
   file at once count it once. A fresh entry that a writer renamed into
   the slot since is dropped too; a later miss writes it again. *)
let remove_torn t path id =
  let aside = Printf.sprintf "%s.torn.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add t.temp_seq 1) in
  match Unix.rename path aside with
  | exception Unix.Unix_error _ -> false
  | () ->
    let same = try identity (Unix.stat aside) = id with Unix.Unix_error _ -> false in
    (try Sys.remove aside with Sys_error _ -> ());
    same

let find t ~key =
  let path = entry_path t ~key in
  if not (Sys.file_exists path) then begin
    Metrics.Scope.incr t.misses;
    None
  end
  else
    match read_entry ~key path with
    | v ->
      Metrics.Scope.incr t.hits;
      Some v
    | exception Corrupt (why, id) ->
      (* a torn or alien entry is a miss, never a crash: drop the file
         so the slot heals on the next write, and count it once *)
      if remove_torn t path id then begin
        Metrics.Scope.incr t.corrupt;
        if Trace.on () then
          Trace.instant ~cat:"engine" ~args:[ ("path", path); ("why", why) ] "store.corrupt"
      end;
      None
    | exception (Sys_error _ | End_of_file | Unix.Unix_error _) ->
      Metrics.Scope.incr t.errors;
      None

let add t ~key v =
  if String.contains key '\n' then
    invalid_arg "Store.add: keys must not contain newlines";
  match Marshal.to_string v [] with
  | exception _ ->
    (* unmarshalable value (closure in the payload): drop the spill *)
    Metrics.Scope.incr t.errors
  | payload -> (
    let path = entry_path t ~key in
    let shard = Filename.dirname path in
    let tmp =
      Printf.sprintf "%s/.tmp.%d.%d.%s" shard (Unix.getpid ())
        (Atomic.fetch_and_add t.temp_seq 1)
        (Filename.basename path)
    in
    match
      mkdir_p shard;
      Out_channel.with_open_bin tmp (fun oc ->
          Printf.fprintf oc "%s\n%s\n%d\n%s\n" magic key (String.length payload)
            (Digest.to_hex (Digest.string payload));
          Out_channel.output_string oc payload);
      (* the entry appears atomically: readers see the old file, no
         file, or the complete new one — never a partial write *)
      Sys.rename tmp path
    with
    | () -> Metrics.Scope.incr t.writes
    | exception (Sys_error _ | Unix.Unix_error _) ->
      Metrics.Scope.incr t.errors;
      (try Sys.remove tmp with Sys_error _ -> ()))

let stats t =
  let get = Metrics.Scope.get in
  {
    hits = get t.hits;
    misses = get t.misses;
    writes = get t.writes;
    corrupt = get t.corrupt;
    errors = get t.errors;
  }

let counters t = Metrics.Scope.snapshot t.scope

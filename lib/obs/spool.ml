(* Bounded on-disk telemetry sinks: a spool directory for flight-
   recorder dumps and a rotating appender for the JSONL access log.
   Both enforce size/count caps with oldest-first eviction so a
   long-lived daemon cannot fill the disk, and both swallow filesystem
   errors — telemetry must never take a request down with it. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = try (Unix.stat path).Unix.st_size with _ -> 0

(* --- spool directory ---------------------------------------------------- *)

(* Sequence number folded into filenames so two dumps in the same
   millisecond (or two daemons sharing a dir, via the pid) never
   collide; names sort chronologically. *)
let seq = Atomic.make 0

let spool_entries ~dir ~prefix =
  match Sys.readdir dir with
  | exception _ -> [||]
  | names ->
    let keep n = String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix in
    let names = Array.of_list (List.filter keep (Array.to_list names)) in
    Array.sort String.compare names;
    names

let prune_spool ~dir ~prefix ~max_files ~max_bytes =
  let names = spool_entries ~dir ~prefix in
  let sizes = Array.map (fun n -> file_size (Filename.concat dir n)) names in
  let total = ref (Array.fold_left ( + ) 0 sizes) in
  let count = ref (Array.length names) in
  let i = ref 0 in
  (* oldest first: names embed a ms timestamp + sequence number *)
  while !i < Array.length names && (!count > max_files || !total > max_bytes) do
    (try Sys.remove (Filename.concat dir names.(!i)) with _ -> ());
    total := !total - sizes.(!i);
    decr count;
    incr i
  done

let max_files = 64
let max_bytes = 16 * 1024 * 1024
let log_max_bytes = 8 * 1024 * 1024
let prefix = "flight"

let write ~dir ?(max_files = max_files) ?(max_bytes = max_bytes) content =
  try
    mkdir_p dir;
    let name =
      Printf.sprintf "%s-%013.0f-%06d-%05d.jsonl" prefix
        (Unix.gettimeofday () *. 1e3)
        (Unix.getpid ())
        (Atomic.fetch_and_add seq 1)
    in
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    prune_spool ~dir ~prefix ~max_files ~max_bytes;
    Ok path
  with e -> Error (Printexc.to_string e)

(* --- rotating line log -------------------------------------------------- *)

type log = {
  path : string;
  max_bytes : int;
  lock : Mutex.t;
  mutable oc : out_channel option;
  mutable size : int;
}

(* rotated generations kept: path.1 .. path.keep *)
let keep = 2

let open_log ~path ?(max_bytes = log_max_bytes) () =
  mkdir_p (Filename.dirname path);
  { path; max_bytes; lock = Mutex.create (); oc = None; size = file_size path }

let rotated log i = Printf.sprintf "%s.%d" log.path i

let close_channel log =
  match log.oc with
  | None -> ()
  | Some oc ->
    (try close_out oc with _ -> ());
    log.oc <- None

let rotate log =
  close_channel log;
  (try Sys.remove (rotated log keep) with _ -> ());
  for i = keep - 1 downto 1 do
    try Sys.rename (rotated log i) (rotated log (i + 1)) with _ -> ()
  done;
  (try Sys.rename log.path (rotated log 1) with _ -> ());
  log.size <- 0

let line log s =
  Mutex.lock log.lock;
  (try
     if log.size + String.length s + 1 > log.max_bytes && log.size > 0 then rotate log;
     let oc =
       match log.oc with
       | Some oc -> oc
       | None ->
         let oc = open_out_gen [ Open_append; Open_creat ] 0o644 log.path in
         log.oc <- Some oc;
         oc
     in
     output_string oc s;
     output_char oc '\n';
     flush oc;
     log.size <- log.size + String.length s + 1
   with _ -> ());
  Mutex.unlock log.lock

let close_log log =
  Mutex.lock log.lock;
  close_channel log;
  Mutex.unlock log.lock

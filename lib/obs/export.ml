let json_escape = Ring.json_escape

let add_args_object b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    args;
  Buffer.add_char b '}'

(* Chrome wants microsecond floats; ns / 1e3 keeps sub-us precision. *)
let us ns = float_of_int ns /. 1e3

let chrome_json () =
  let evs = Trace.events () in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let tids = Hashtbl.create 8 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n"
  in
  List.iter
    (fun (e : Trace.event) ->
      if not (Hashtbl.mem tids e.Trace.tid) then begin
        Hashtbl.replace tids e.Trace.tid ();
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
             e.Trace.tid e.Trace.tid)
      end;
      sep ();
      (match e.Trace.kind with
      | Trace.Span ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":"
             (json_escape e.Trace.name)
             (json_escape (if e.Trace.cat = "" then "default" else e.Trace.cat))
             (us e.Trace.ts_ns)
             (us (Int.max 0 e.Trace.dur_ns))
             e.Trace.tid)
      | Trace.Instant ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":"
             (json_escape e.Trace.name)
             (json_escape (if e.Trace.cat = "" then "default" else e.Trace.cat))
             (us e.Trace.ts_ns) e.Trace.tid));
      add_args_object b (("span_id", string_of_int e.Trace.id)
                        :: ("parent", string_of_int e.Trace.parent)
                        :: e.Trace.args);
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let jsonl () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\":\"%s\",\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"tid\":%d,\"ts_ns\":%d,\"dur_ns\":%d,\"args\":"
           (match e.Trace.kind with Trace.Span -> "span" | Trace.Instant -> "instant")
           e.Trace.id e.Trace.parent (json_escape e.Trace.name) (json_escape e.Trace.cat)
           e.Trace.tid e.Trace.ts_ns
           (Int.max 0 e.Trace.dur_ns));
      add_args_object b e.Trace.args;
      Buffer.add_string b "}\n")
    (Trace.events ());
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_value n ->
        Buffer.add_string b
          (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n" (json_escape name) n)
      | Metrics.Gauge_value g ->
        Buffer.add_string b
          (Printf.sprintf "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%g}\n" (json_escape name) g)
      | Metrics.Histogram_value h ->
        let count = Metrics.Histogram.count h in
        if count > 0 then
          Buffer.add_string b
            (Printf.sprintf
               "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum\":%g,\"min\":%g,\"max\":%g,\"p50\":%g,\"p90\":%g,\"p95\":%g,\"p99\":%g}\n"
               (json_escape name) count (Metrics.Histogram.sum h)
               (Metrics.Histogram.min_value h) (Metrics.Histogram.max_value h)
               (Metrics.Histogram.percentile h 50.0) (Metrics.Histogram.percentile h 90.0)
               (Metrics.Histogram.percentile h 95.0) (Metrics.Histogram.percentile h 99.0)))
    (Metrics.snapshot ());
  Buffer.contents b

let summary () = Metrics.render ()

let write_string ~path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_chrome ~path = write_string ~path (chrome_json ())
let write_jsonl ~path = write_string ~path (jsonl ())

let write ~path =
  if Filename.check_suffix path ".jsonl" then write_jsonl ~path else write_chrome ~path

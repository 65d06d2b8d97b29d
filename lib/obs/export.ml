let str s = Json.String s

let args (e : Trace.event) =
  ("span_id", string_of_int e.Trace.id) :: ("parent", string_of_int e.Trace.parent) :: e.Trace.args

let chrome_json () =
  let seen = Hashtbl.create 8 in
  let events (e : Trace.event) =
    let tid = e.Trace.tid in
    let span =
      { Ring.name = e.Trace.name; cat = e.Trace.cat; dom = tid; ts_ns = e.Trace.ts_ns;
        dur_ns = e.Trace.dur_ns; args = args e }
    in
    let event =
      match e.Trace.kind with
      | Trace.Span -> Ring.chrome_event ~ph:"X" ~pid:0 span
      | Trace.Instant -> Ring.chrome_event ~ph:"i" ~fields:[ ("s", str "t") ] ~pid:0 span
    in
    if Hashtbl.mem seen tid then [ event ]
    else begin
      Hashtbl.replace seen tid ();
      let name = Json.Obj [ ("name", str (Printf.sprintf "domain %d" tid)) ] in
      [ Json.Obj [ ("name", str "thread_name"); ("ph", str "M"); ("pid", Json.Int 0);
                   ("tid", Json.Int tid); ("args", name) ];
        event ]
    end
  in
  let trace = List.concat_map events (Trace.events ()) in
  Json.to_string (Json.Obj [ ("traceEvents", Json.List trace); ("displayTimeUnit", str "ns") ])
  ^ "\n"

let jsonl () =
  let b = Buffer.create 65536 in
  let line kind name fields =
    let obj = Json.Obj (("type", str kind) :: ("name", str name) :: fields) in
    Buffer.add_string b (Json.to_string obj);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (e : Trace.event) ->
      line
        (match e.Trace.kind with Trace.Span -> "span" | Trace.Instant -> "instant")
        e.Trace.name
        [
          ("id", Json.Int e.Trace.id);
          ("parent", Json.Int e.Trace.parent);
          ("cat", str e.Trace.cat);
          ("tid", Json.Int e.Trace.tid);
          ("ts_ns", Json.Int e.Trace.ts_ns);
          ("dur_ns", Json.Int (Int.max 0 e.Trace.dur_ns));
          ("args", Json.Obj (List.map (fun (k, v) -> (k, str v)) e.Trace.args));
        ])
    (Trace.events ());
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_value n -> line "counter" name [ ("value", Json.Int n) ]
      | Metrics.Gauge_value g -> line "gauge" name [ ("value", Json.float g) ]
      | Metrics.Histogram_value h ->
        let count = Metrics.Histogram.count h in
        let pct q = (Printf.sprintf "p%.0f" q, Json.float (Metrics.Histogram.percentile h q)) in
        if count > 0 then
          line "histogram" name
            ([
               ("count", Json.Int count);
               ("sum", Json.float (Metrics.Histogram.sum h));
               ("min", Json.float (Metrics.Histogram.min_value h));
               ("max", Json.float (Metrics.Histogram.max_value h));
             ]
            @ List.map pct [ 50.0; 90.0; 95.0; 99.0 ]))
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

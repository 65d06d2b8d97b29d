type request =
  | Ping
  | Stats
  | Metrics_text
  | Shutdown
  | Sleep of { seconds : float }
  | Dc_op of { expr : string; state : int; vdd : float option }
  | Transient of { expr : string; bit_time : float; h : float }
  | Yield of { expr : string; samples : int; sigma_vth : float; seed : int }
  | Defects of { expr : string; all_classes : bool }
  | Table1 of { rows : int; cols : int }
  | Paths of { rows : int; cols : int }
  | Run_deck of { deck : string; smoke : bool }

type envelope = {
  id : Json.t option;
  deadline_s : float option;
  trace_id : string option;
  parent_span : string option;
  req : request;
}

let request_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics_text -> "metrics_text"
  | Shutdown -> "shutdown"
  | Sleep _ -> "sleep"
  | Dc_op _ -> "dc_op"
  | Transient _ -> "transient"
  | Yield _ -> "yield"
  | Defects _ -> "defects"
  | Table1 _ -> "table1"
  | Paths _ -> "paths"
  | Run_deck _ -> "run_deck"

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_type
  | Unknown_field
  | Frame_too_long
  | Invalid_frame
  | Overloaded
  | Quota_exceeded
  | Timeout
  | Non_convergent
  | Deck_error
  | Shutting_down
  | Internal

let code_name = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_type -> "unknown_type"
  | Unknown_field -> "unknown_field"
  | Frame_too_long -> "frame_too_long"
  | Invalid_frame -> "invalid_frame"
  | Overloaded -> "overloaded"
  | Quota_exceeded -> "quota_exceeded"
  | Timeout -> "timeout"
  | Non_convergent -> "non_convergent"
  | Deck_error -> "deck_error"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let all_codes =
  [
    Parse_error; Bad_request; Unknown_type; Unknown_field; Frame_too_long;
    Invalid_frame; Overloaded; Quota_exceeded; Timeout; Non_convergent;
    Deck_error; Shutting_down; Internal;
  ]

let code_of_name name = List.find_opt (fun c -> code_name c = name) all_codes

(* --- request validation ------------------------------------------------ *)

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

(* every request accepts the envelope fields on top of its own *)
let envelope_fields = [ "type"; "id"; "deadline_s"; "trace_id"; "parent_span" ]

let check_fields ~allowed pairs =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed || List.mem k envelope_fields) then
        reject Unknown_field "unknown field %S for this request type" k)
    pairs

let get field conv ~what pairs =
  match List.assoc_opt field pairs with
  | None -> reject Bad_request "missing required field %S" field
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> reject Bad_request "field %S must be %s" field what)

let get_opt field conv ~what pairs =
  match List.assoc_opt field pairs with
  | None -> None
  | Some v -> (
    match conv v with
    | Some x -> Some x
    | None -> reject Bad_request "field %S must be %s" field what)

let get_default field conv ~what ~default pairs =
  Option.value (get_opt field conv ~what pairs) ~default

let positive_float v =
  match Json.to_float v with Some f when f > 0.0 && Float.is_finite f -> Some f | _ -> None

let nonneg_float v =
  match Json.to_float v with Some f when f >= 0.0 && Float.is_finite f -> Some f | _ -> None

let dim v =
  match Json.to_int v with Some n when n >= 2 && n <= 12 -> Some n | _ -> None

let parse_typed pairs ty =
  match ty with
  | "ping" ->
    check_fields ~allowed:[] pairs;
    Ping
  | "stats" ->
    check_fields ~allowed:[] pairs;
    Stats
  | "metrics_text" ->
    check_fields ~allowed:[] pairs;
    Metrics_text
  | "shutdown" ->
    check_fields ~allowed:[] pairs;
    Shutdown
  | "sleep" ->
    check_fields ~allowed:[ "seconds" ] pairs;
    let seconds =
      get "seconds"
        (fun v ->
          match Json.to_float v with Some f when f >= 0.0 && f <= 10.0 -> Some f | _ -> None)
        ~what:"a number in [0, 10]" pairs
    in
    Sleep { seconds }
  | "dc_op" ->
    check_fields ~allowed:[ "expr"; "state"; "vdd" ] pairs;
    let expr = get "expr" Json.to_str ~what:"a string" pairs in
    let state =
      get "state"
        (fun v -> match Json.to_int v with Some n when n >= 0 -> Some n | _ -> None)
        ~what:"a non-negative integer" pairs
    in
    let vdd = get_opt "vdd" positive_float ~what:"a positive number" pairs in
    Dc_op { expr; state; vdd }
  | "transient" ->
    check_fields ~allowed:[ "expr"; "bit_time"; "h" ] pairs;
    let expr = get "expr" Json.to_str ~what:"a string" pairs in
    let bit_time =
      get_default "bit_time" positive_float ~what:"a positive number" ~default:100e-9 pairs
    in
    let h = get_default "h" positive_float ~what:"a positive number" ~default:1e-9 pairs in
    if h > bit_time then reject Bad_request "step %g exceeds bit_time %g" h bit_time;
    Transient { expr; bit_time; h }
  | "yield" ->
    check_fields ~allowed:[ "expr"; "samples"; "sigma_vth"; "seed" ] pairs;
    let expr = get "expr" Json.to_str ~what:"a string" pairs in
    let samples =
      get_default "samples"
        (fun v ->
          match Json.to_int v with Some n when n >= 1 && n <= 10_000 -> Some n | _ -> None)
        ~what:"an integer in [1, 10000]" ~default:100 pairs
    in
    let sigma_vth =
      get_default "sigma_vth" nonneg_float ~what:"a non-negative number" ~default:0.03 pairs
    in
    let seed =
      get_default "seed" Json.to_int ~what:"an integer" ~default:42 pairs
    in
    Yield { expr; samples; sigma_vth; seed }
  | "defects" ->
    check_fields ~allowed:[ "expr"; "all_classes" ] pairs;
    let expr = get "expr" Json.to_str ~what:"a string" pairs in
    let all_classes =
      get_default "all_classes" Json.to_bool ~what:"a boolean" ~default:false pairs
    in
    Defects { expr; all_classes }
  | "table1" ->
    check_fields ~allowed:[ "rows"; "cols" ] pairs;
    Table1
      {
        rows = get "rows" dim ~what:"an integer in [2, 12]" pairs;
        cols = get "cols" dim ~what:"an integer in [2, 12]" pairs;
      }
  | "paths" ->
    check_fields ~allowed:[ "rows"; "cols" ] pairs;
    Paths
      {
        rows = get "rows" dim ~what:"an integer in [2, 12]" pairs;
        cols = get "cols" dim ~what:"an integer in [2, 12]" pairs;
      }
  | "run_deck" ->
    check_fields ~allowed:[ "deck"; "smoke" ] pairs;
    let deck = get "deck" Json.to_str ~what:"a string" pairs in
    if String.length deck > 32768 then
      reject Bad_request "deck of %d bytes exceeds the 32768-byte cap" (String.length deck);
    let smoke = get_default "smoke" Json.to_bool ~what:"a boolean" ~default:false pairs in
    Run_deck { deck; smoke }
  | other -> reject Unknown_type "unknown request type %S" other

let recover_id json =
  match Json.member "id" json with
  | Some (Json.String _ | Json.Int _ | Json.Float _ | Json.Bool _ | Json.Null) as id -> id
  | Some _ | None -> None

let parse_request line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error (None, Parse_error, msg)
  | Json.Obj pairs as json -> (
    let id = recover_id json in
    match
      let id_ok =
        match List.assoc_opt "id" pairs with
        | None -> true
        | Some (Json.String _ | Json.Int _ | Json.Float _ | Json.Bool _ | Json.Null) -> true
        | Some _ -> false
      in
      if not id_ok then reject Bad_request "field \"id\" must be a scalar";
      let deadline_s =
        get_opt "deadline_s" nonneg_float ~what:"a non-negative number" pairs
      in
      (* trace correlation ids: opaque to the daemon, stamped into its
         spans; bounded and non-empty so a garbage value fails loudly *)
      let trace_field name =
        get_opt name
          (fun v ->
            match Json.to_str v with
            | Some s when String.length s >= 1 && String.length s <= 128 -> Some s
            | _ -> None)
          ~what:"a string of 1..128 bytes" pairs
      in
      let trace_id = trace_field "trace_id" in
      let parent_span = trace_field "parent_span" in
      if parent_span <> None && trace_id = None then
        reject Bad_request "field \"parent_span\" requires \"trace_id\"";
      let ty = get "type" Json.to_str ~what:"a string" pairs in
      { id; deadline_s; trace_id; parent_span; req = parse_typed pairs ty }
    with
    | env -> Ok env
    | exception Reject (code, msg) -> Error (id, code, msg))
  | _ -> Error (None, Bad_request, "request frame must be a JSON object")

(* --- responses --------------------------------------------------------- *)

let id_field = function None -> [] | Some id -> [ ("id", id) ]

let render_ok ~id result =
  Json.to_string (Json.Obj (id_field id @ [ ("ok", Json.Bool true); ("result", result) ]))

let render_error ?(details = []) ~id code message =
  Json.to_string
    (Json.Obj
       (id_field id
       @ [
           ("ok", Json.Bool false);
           ( "error",
             Json.Obj
               ([ ("code", Json.String (code_name code)); ("message", Json.String message) ]
               @ details) );
         ]))

let json_float = Json.float

type parsed_response = {
  resp_id : Json.t option;
  payload : (Json.t, error_code * string) result;
}

let parse_response line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error ("response is not valid JSON: " ^ msg)
  | json -> (
    let resp_id = Json.member "id" json in
    match Json.member "ok" json with
    | Some (Json.Bool true) -> (
      match Json.member "result" json with
      | Some result -> Ok { resp_id; payload = Ok result }
      | None -> Error "ok response carries no \"result\"")
    | Some (Json.Bool false) -> (
      match Json.member "error" json with
      | Some err -> (
        let code =
          Option.bind (Json.member "code" err) Json.to_str
          |> Fun.flip Option.bind code_of_name
        in
        let message =
          Option.value (Option.bind (Json.member "message" err) Json.to_str) ~default:""
        in
        match code with
        | Some c -> Ok { resp_id; payload = Error (c, message) }
        | None -> Error "error response carries no recognizable \"code\"")
      | None -> Error "error response carries no \"error\"")
    | Some _ | None -> Error "response carries no boolean \"ok\"")

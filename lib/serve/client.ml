type addr = Unix_socket of string | Tcp of string * int

type t = { fd : Unix.file_descr; r : Framing.reader; mutable closed : bool }

exception Protocol_error of string

let max_frame = 16 * 1024 * 1024

let connect addr =
  let fd, sockaddr =
    match addr with
    | Unix_socket path ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  (match Unix.connect fd sockaddr with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  { fd; r = Framing.reader ~max_frame fd; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send_raw t line = Framing.write_frame t.fd line

let recv_raw t =
  match Framing.read_frame t.r with
  | Framing.Frame line -> Some line
  | Framing.Eof -> None
  | Framing.Too_long n ->
    raise (Protocol_error (Printf.sprintf "response frame of %d bytes exceeds the client cap" n))
  | Framing.Nul -> raise (Protocol_error "response frame contains a NUL byte")

let call_raw t line =
  send_raw t line;
  match recv_raw t with
  | Some resp -> resp
  | None -> raise (Protocol_error "server closed the connection before answering")

let call t ?id ?deadline_s ?trace_id ~type_ fields =
  let envelope =
    [ ("type", Json.String type_) ]
    @ (match id with None -> [] | Some id -> [ ("id", id) ])
    @ (match deadline_s with
      | None -> []
      | Some d -> [ ("deadline_s", Json.Float d) ])
    @
    match trace_id with
    | None -> []
    | Some s -> [ ("trace_id", Json.String s) ]
  in
  let line = Json.to_string (Json.Obj (envelope @ fields)) in
  match Protocol.parse_response (call_raw t line) with
  | Error msg -> raise (Protocol_error msg)
  | Ok { Protocol.payload; _ } -> payload

let ping t = match call t ~type_:"ping" [] with Ok _ -> true | Error _ -> false

let stats t =
  match call t ~type_:"stats" [] with
  | Ok result -> result
  | Error (code, msg) ->
    raise (Protocol_error (Printf.sprintf "stats failed: %s: %s" (Protocol.code_name code) msg))

let shutdown t =
  match call t ~type_:"shutdown" [] with
  | Ok _ -> ()
  | Error (code, msg) ->
    raise
      (Protocol_error (Printf.sprintf "shutdown failed: %s: %s" (Protocol.code_name code) msg))

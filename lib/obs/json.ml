type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* deeper documents raise [Parse_error] instead of overflowing the stack
   on adversarial input *)
let max_depth = 64

(* --- parsing ----------------------------------------------------------- *)

type state = { s : string; mutable pos : int }

let fail st reason = raise (Parse_error (Printf.sprintf "offset %d: %s" st.pos reason))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.s in
  while
    st.pos < n
    && (match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st (Printf.sprintf "expected %C, found %C" c x)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit in \\u escape"

(* decode a \uXXXX code point (with surrogate pairing) into UTF-8 *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
  let v =
    (hex_digit st st.s.[st.pos] lsl 12)
    lor (hex_digit st st.s.[st.pos + 1] lsl 8)
    lor (hex_digit st st.s.[st.pos + 2] lsl 4)
    lor hex_digit st st.s.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = parse_hex4 st in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require a paired \uXXXX low surrogate *)
            if
              st.pos + 2 <= String.length st.s
              && st.s.[st.pos] = '\\'
              && st.s.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let lo = parse_hex4 st in
              if lo < 0xDC00 || lo > 0xDFFF then fail st "invalid low surrogate";
              add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else fail st "unpaired high surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired low surrogate"
          else add_utf8 buf cp
        | _ -> fail st (Printf.sprintf "invalid escape \\%c" c)));
      loop ()
    | Some c when Char.code c < 0x20 -> fail st "bare control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  if
    peek st = Some '0'
    && st.pos + 1 < String.length st.s
    && match st.s.[st.pos + 1] with '0' .. '9' -> true | _ -> false
  then fail st "leading zero in number";
  let digits () =
    let seen = ref false in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some '0' .. '9' ->
        seen := true;
        advance st
      | _ -> continue := false
    done;
    !seen
  in
  if not (digits ()) then fail st "invalid number";
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    if not (digits ()) then fail st "digits required after decimal point"
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    if not (digits ()) then fail st "digits required in exponent"
  | _ -> ());
  let tok = String.sub st.s start (st.pos - start) in
  if !is_float then Float (float_of_string tok)
  else
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> Float (float_of_string tok)  (* past max_int *)

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let pairs = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        pairs := (key, v) :: !pairs;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st
        | Some '}' ->
          advance st;
          continue := false
        | _ -> fail st "expected ',' or '}' in object"
      done;
      Obj (List.rev !pairs)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        let v = parse_value st (depth + 1) in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st
        | Some ']' ->
          advance st;
          continue := false
        | _ -> fail st "expected ',' or ']' in array"
      done;
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage after document";
  v

(* --- printing ---------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite float (build it with Json.float)";
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips exactly; "%.17g" prints
       integral values in [1e16, 1e17) without a point or an exponent *)
    let short = Printf.sprintf "%.15g" f in
    let s = if float_of_string short = f then short else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let float f =
  if Float.is_finite f then Float f
  else if f > 0.0 then String "inf"
  else if f < 0.0 then String "-inf"
  else String "nan"

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_into buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj pairs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go item)
        pairs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors --------------------------------------------------------- *)

let member key = function Obj pairs -> List.assoc_opt key pairs | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 2.0 ** 53.0 -> Some (int_of_float f)
  | _ -> None

let to_float = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None

type t =
  | Const of bool
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t

exception Parse_error of string

type token =
  | Tident of string
  | Tconst of bool
  | Tnot
  | Tand
  | Tor
  | Txor
  | Tprime
  | Tlparen
  | Trparen

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '0' -> go (i + 1) (Tconst false :: acc)
      | '1' -> go (i + 1) (Tconst true :: acc)
      | '!' | '~' -> go (i + 1) (Tnot :: acc)
      | '&' | '*' -> go (i + 1) (Tand :: acc)
      | '+' | '|' -> go (i + 1) (Tor :: acc)
      | '^' -> go (i + 1) (Txor :: acc)
      | '\'' -> go (i + 1) (Tprime :: acc)
      | '(' -> go (i + 1) (Tlparen :: acc)
      | ')' -> go (i + 1) (Trparen :: acc)
      | c when is_ident_start c ->
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        go !j (Tident (String.sub s i (!j - i)) :: acc)
      | c -> raise (Parse_error (Printf.sprintf "unexpected character %C at offset %d" c i))
  in
  go 0 []

(* Recursive descent over the token list; variables are interned in first-
   appearance order. *)
let parse s =
  let names = ref [] in
  let count = ref 0 in
  let intern name =
    match List.assoc_opt name !names with
    | Some i -> i
    | None ->
      let i = !count in
      names := (name, i) :: !names;
      incr count;
      i
  in
  let tokens = ref (tokenize s) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let advance () = match !tokens with [] -> () | _ :: rest -> tokens := rest in
  let expect t what =
    match peek () with
    | Some t' when t' = t -> advance ()
    | _ -> raise (Parse_error ("expected " ^ what))
  in
  let rec parse_or () =
    let lhs = parse_xor () in
    match peek () with
    | Some Tor ->
      advance ();
      Or (lhs, parse_or ())
    | Some (Tident _ | Tconst _ | Tnot | Tand | Txor | Tprime | Tlparen | Trparen) | None -> lhs
  and parse_xor () =
    let lhs = parse_and () in
    match peek () with
    | Some Txor ->
      advance ();
      Xor (lhs, parse_xor ())
    | Some (Tident _ | Tconst _ | Tnot | Tand | Tor | Tprime | Tlparen | Trparen) | None -> lhs
  and parse_and () =
    let lhs = parse_factor () in
    match peek () with
    | Some Tand ->
      advance ();
      And (lhs, parse_and ())
    | Some (Tident _ | Tconst _ | Tnot | Tlparen) ->
      (* juxtaposition means AND, e.g. "a b'c" *)
      And (lhs, parse_and ())
    | Some (Tor | Txor | Tprime | Trparen) | None -> lhs
  and parse_factor () =
    match peek () with
    | Some Tnot ->
      advance ();
      Not (parse_factor ())
    | Some (Tident _ | Tconst _ | Tlparen | Tand | Tor | Txor | Tprime | Trparen) | None ->
      let atom = parse_atom () in
      parse_primes atom
  and parse_primes e =
    match peek () with
    | Some Tprime ->
      advance ();
      parse_primes (Not e)
    | Some (Tident _ | Tconst _ | Tnot | Tand | Tor | Txor | Tlparen | Trparen) | None -> e
  and parse_atom () =
    match peek () with
    | Some (Tident name) ->
      advance ();
      Var (intern name)
    | Some (Tconst b) ->
      advance ();
      Const b
    | Some Tlparen ->
      advance ();
      let e = parse_or () in
      expect Trparen "')'";
      e
    | Some (Tnot | Tand | Tor | Txor | Tprime | Trparen) | None ->
      raise (Parse_error "expected variable, constant or '('")
  in
  let ast = parse_or () in
  (match !tokens with [] -> () | _ -> raise (Parse_error "trailing tokens"));
  let arr = Array.make !count "" in
  List.iter (fun (name, i) -> arr.(i) <- name) !names;
  (ast, arr)

let rec eval e assignment =
  match e with
  | Const b -> b
  | Var v -> assignment land (1 lsl v) <> 0
  | Not a -> not (eval a assignment)
  | And (a, b) -> eval a assignment && eval b assignment
  | Or (a, b) -> eval a assignment || eval b assignment
  | Xor (a, b) -> not (Bool.equal (eval a assignment) (eval b assignment))

let to_truthtable e ~nvars = Truthtable.create nvars (eval e)

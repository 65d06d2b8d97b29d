module Sp = Lattice_spice
module N = Sp.Netlist
module M = Lattice_mosfet

exception Fail of Ast.error

let err line col fmt =
  Printf.ksprintf (fun msg -> raise (Fail { Ast.line; col; msg })) fmt

let err_tok (t : Lexer.token) fmt = err t.line t.col fmt
let lower = String.lowercase_ascii

(* ---------- values ---------- *)

(* A value token is either a SPICE number ("4.7k", "10pF") or a {param}
   reference resolved against the enclosing subcircuit instance. *)
let parse_value env (t : Lexer.token) =
  let s = t.text in
  let n = String.length s in
  if n >= 2 && s.[0] = '{' && s.[n - 1] = '}' then begin
    let name = lower (String.trim (String.sub s 1 (n - 2))) in
    match List.assoc_opt name env with
    | Some v -> v
    | None -> err_tok t "unknown parameter {%s}" name
  end
  else
    match Sp.Units.parse_spice s with
    | Some v -> v
    | None -> err_tok t "malformed value %S" s

let parse_positive env what t =
  let v = parse_value env t in
  if (not (Float.is_finite v)) || v <= 0.0 then
    err_tok t "%s must be positive and finite (got %s)" what t.Lexer.text;
  v

(* Split a token list into leading positional tokens and trailing
   name=value pairs (the first token followed by '=' starts the pairs). *)
let split_params toks =
  let rec pairs acc = function
    | [] -> List.rev acc
    | name :: { Lexer.text = "="; _ } :: value :: rest -> pairs ((name, value) :: acc) rest
    | (name : Lexer.token) :: { Lexer.text = "="; _ } :: [] ->
      err_tok name "missing value after '='"
    | t :: _ -> err_tok t "expected name=value"
  in
  let rec pos acc = function
    | a :: ({ Lexer.text = "="; _ } :: _ as rest) -> (List.rev acc, pairs [] (a :: rest))
    | a :: rest -> pos (a :: acc) rest
    | [] -> (List.rev acc, [])
  in
  pos [] toks

(* ---------- .model cards ---------- *)

type model_spec = {
  level : int;
  kp : float;
  vto : float;
  lambda : float;
  theta : float;
  vc : float option;  (* explicit VC=; otherwise derived from vmax *)
  vmax : float;
  def_w : float;
  def_l : float;
}

let default_model_spec =
  (* Berkeley SPICE level-1 defaults; W/L only apply when the M card
     gives no instance geometry. *)
  { level = 1; kp = 2e-5; vto = 0.0; lambda = 0.0; theta = 0.1; vc = None;
    vmax = 1e5; def_w = 100e-6; def_l = 100e-6 }

let parse_model models toks =
  match toks with
  | _dot :: name :: mtype :: param_toks ->
    (match lower mtype.Lexer.text with
     | "nmos" | "pmos" -> ()
     | other -> err_tok mtype "unsupported model type %S (NMOS and PMOS only)" other);
    let key = lower name.Lexer.text in
    if Hashtbl.mem models key then err_tok name "duplicate .model %s" name.Lexer.text;
    let param_toks =
      List.filter (fun (t : Lexer.token) -> t.text <> "(" && t.text <> ")") param_toks
    in
    let pos, pairs = split_params param_toks in
    (match pos with
     | [] -> ()
     | t :: _ -> err_tok t "expected name=value in .model parameters");
    let spec = ref default_model_spec in
    List.iter
      (fun ((pn : Lexer.token), pv) ->
        let v () = parse_value [] pv in
        match lower pn.text with
        | "level" ->
          let l = v () in
          if l <> 1.0 && l <> 3.0 then err_tok pv "only LEVEL=1 and LEVEL=3 are supported";
          spec := { !spec with level = int_of_float l }
        | "kp" -> spec := { !spec with kp = v () }
        | "vto" -> spec := { !spec with vto = v () }
        | "lambda" | "kappa" -> spec := { !spec with lambda = v () }
        | "theta" -> spec := { !spec with theta = v () }
        | "vc" -> spec := { !spec with vc = Some (v ()) }
        | "vmax" -> spec := { !spec with vmax = v () }
        | "w" -> spec := { !spec with def_w = parse_positive [] "model W" pv }
        | "l" -> spec := { !spec with def_l = parse_positive [] "model L" pv }
        | other -> err_tok pn "unsupported .model parameter %S" other)
      pairs;
    Hashtbl.replace models key !spec
  | _dot :: _ -> err_tok (List.hd toks) ".model syntax: .model NAME NMOS|PMOS (p=v ...)"
  | [] -> assert false

(* ---------- .subckt collection ---------- *)

type subckt = {
  pins : string list;  (* lowercased, matched case-insensitively *)
  defaults : (string * float) list;  (* lowercased parameter names *)
  body : Lexer.token list list;
}

let collect_subckt subckts header rest =
  match header with
  | sub_tok :: name :: arg_toks ->
    let key = lower name.Lexer.text in
    if Hashtbl.mem subckts key then err_tok name "duplicate .subckt %s" name.Lexer.text;
    let pin_toks, pairs = split_params arg_toks in
    let pins = List.map (fun (t : Lexer.token) -> lower t.text) pin_toks in
    let defaults =
      List.map (fun ((pn : Lexer.token), pv) -> (lower pn.text, parse_value [] pv)) pairs
    in
    let rec body acc = function
      | [] -> err_tok sub_tok "unterminated .subckt %s (missing .ends)" name.Lexer.text
      | ((t : Lexer.token) :: _) :: more when lower t.text = ".ends" -> (List.rev acc, more)
      | ((t : Lexer.token) :: _) :: _ when lower t.text = ".subckt" ->
        err_tok t "nested .subckt is not supported"
      | line :: more -> body (line :: acc) more
    in
    let body_lines, remaining = body [] rest in
    Hashtbl.replace subckts key { pins; defaults; body = body_lines };
    remaining
  | _ -> err_tok (List.hd header) ".subckt syntax: .subckt NAME pin... [p=v ...]"

(* First pass: pull .model and .subckt definitions out (both have global
   scope, whatever their position), stop at .end, keep everything else
   in order for elaboration. *)
let scan_cards lines =
  let models = Hashtbl.create 8 in
  let subckts = Hashtbl.create 8 in
  let cards = ref [] in
  let rec go = function
    | [] -> ()
    | ((tok0 : Lexer.token) :: _ as toks) :: rest ->
      (match lower tok0.text with
       | ".end" -> ()
       | ".ends" -> err_tok tok0 ".ends without a matching .subckt"
       | ".model" ->
         parse_model models toks;
         go rest
       | ".subckt" -> go (collect_subckt subckts toks rest)
       | _ ->
         cards := toks :: !cards;
         go rest)
    | [] :: _ -> assert false
  in
  go lines;
  (models, subckts, List.rev !cards)

(* ---------- sources ---------- *)

let parse_ac env = function
  | [] -> false
  | (t : Lexer.token) :: rest when lower t.text = "ac" ->
    (match rest with
     | [] -> true
     | [ m ] ->
       let v = parse_value env m in
       if v <> 1.0 then err_tok m "only unit AC magnitude is supported (got %s)" m.Lexer.text;
       true
     | _ :: extra :: _ -> err_tok (extra : Lexer.token) "unexpected token after AC magnitude")
  | (t : Lexer.token) :: _ -> err_tok t "unexpected token %S after source value" t.text

let paren_args env (kw : Lexer.token) toks =
  match toks with
  | { Lexer.text = "("; _ } :: rest ->
    let rec go acc = function
      | [] -> err_tok kw "missing ')' in %s(...)" (String.uppercase_ascii kw.text)
      | { Lexer.text = ")"; _ } :: more -> (List.rev acc, more)
      | t :: more -> go (parse_value env t :: acc) more
    in
    go [] rest
  | (t : Lexer.token) :: _ -> err_tok t "expected '(' after %s" (String.uppercase_ascii kw.text)
  | [] -> err_tok kw "expected '(' after %s" (String.uppercase_ascii kw.text)

let parse_source env toks (head : Lexer.token) =
  match toks with
  | [] -> err_tok head "source card is missing its value"
  | (t : Lexer.token) :: rest ->
    (match lower t.text with
     | "dc" ->
       (match rest with
        | v :: more -> (Sp.Source.Dc (parse_value env v), parse_ac env more)
        | [] -> err_tok t "DC needs a value")
     | "pulse" ->
       let args, more = paren_args env t rest in
       (match args with
        | [ v1; v2; delay; rise; fall; width; period ] ->
          (Sp.Source.Pulse { v1; v2; delay; rise; fall; width; period }, parse_ac env more)
        | _ ->
          err_tok t "PULSE needs 7 arguments (v1 v2 td tr tf pw per), got %d"
            (List.length args))
     | "sin" ->
       let args, more = paren_args env t rest in
       let wave =
         match args with
         | [ offset; amplitude; freq ] ->
           Sp.Source.Sin { offset; amplitude; freq; delay = 0.0; damping = 0.0 }
         | [ offset; amplitude; freq; delay ] ->
           Sp.Source.Sin { offset; amplitude; freq; delay; damping = 0.0 }
         | [ offset; amplitude; freq; delay; damping ] ->
           Sp.Source.Sin { offset; amplitude; freq; delay; damping }
         | _ ->
           err_tok t "SIN needs 3 to 5 arguments (vo va freq [td [theta]]), got %d"
             (List.length args)
       in
       (wave, parse_ac env more)
     | "pwl" ->
       let args, more = paren_args env t rest in
       if args = [] || List.length args mod 2 <> 0 then
         err_tok t "PWL needs a positive, even number of values (t v pairs)";
       let rec pair = function
         | [] -> []
         | a :: b :: rest -> (a, b) :: pair rest
         | [ _ ] -> assert false
       in
       (Sp.Source.Pwl (pair args), parse_ac env more)
     | _ -> (Sp.Source.Dc (parse_value env t), parse_ac env rest))

(* ---------- elaboration ---------- *)

(* Caps on the elaborated netlist. X cards multiply a short deck's size
   by their fan-out at every nesting level, and every analysis factors
   an n x n MNA system: its pivot search takes 8 n^2 bytes and its LU
   16 bytes per L+U entry, up to n^2 entries when the fill is dense, so
   24 n^2 bytes in all (96 MiB at the cap, 384 MiB for the 2n AC
   system); elements cost memory and time however few unknowns they
   add. *)
let max_unknowns = 2048
let max_elements = 65_536

let parse_lines title lines =
  let models, subckts, cards = scan_cards lines in
  let net = N.create () in
  let used = Hashtbl.create 64 in
  let ac_source = ref None in
  let analysis_cards = ref [] in
  let print_cards = ref [] in
  let resolve_top (t : Lexer.token) =
    let s = t.text in
    if s = "0" || lower s = "gnd" then N.ground else N.node net s
  in
  let elements = ref 0 in
  let elem_name (head : Lexer.token) ~prefix =
    if String.length head.text < 2 then
      err_tok head "element card needs a name after the type letter";
    incr elements;
    let full = prefix ^ String.sub head.text 1 (String.length head.text - 1) in
    let key =
      Printf.sprintf "%c:%s" (Char.lowercase_ascii head.text.[0]) (lower full)
    in
    if Hashtbl.mem used key then
      err_tok head "duplicate element name %c%s"
        (Char.uppercase_ascii head.text.[0]) full;
    Hashtbl.replace used key ();
    full
  in
  (* [top] is the deck's own card being elaborated: a cap crossed inside
     a subcircuit is reported at the instance that expanded it *)
  let rec elab ~top ~prefix ~resolve ~env ~depth toks =
    let head = List.hd toks and args = List.tl toks in
    (match Char.lowercase_ascii head.Lexer.text.[0] with
    | 'r' ->
      let full = elem_name head ~prefix in
      (match args with
       | [ n1; n2; v ] ->
         let ohms = parse_positive env "resistance" v in
         N.resistor net full (resolve n1) (resolve n2) ohms
       | _ -> err_tok head "R card syntax: R<name> n1 n2 value")
    | 'c' ->
      let full = elem_name head ~prefix in
      (match args with
       | [ n1; n2; v ] ->
         let farads = parse_positive env "capacitance" v in
         N.capacitor net full (resolve n1) (resolve n2) farads
       | _ -> err_tok head "C card syntax: C<name> n1 n2 value")
    | ('v' | 'i') as kind ->
      let full = elem_name head ~prefix in
      (match args with
       | np :: nn :: src_toks ->
         let wave, ac = parse_source env src_toks head in
         if ac then begin
           if kind = 'i' then
             err_tok head "AC excitation is only supported on V sources";
           match !ac_source with
           | Some other -> err_tok head "multiple AC sources (already on V%s)" other
           | None -> ac_source := Some full
         end;
         if kind = 'v' then N.vsource net full (resolve np) (resolve nn) wave
         else N.isource net full (resolve np) (resolve nn) wave
       | _ ->
         err_tok head "%c card syntax: %c<name> n+ n- <source>"
           (Char.uppercase_ascii kind) (Char.uppercase_ascii kind))
    | 'm' ->
      let full = elem_name head ~prefix in
      (match args with
       | d :: g :: s :: (b : Lexer.token) :: (model_tok : Lexer.token) :: param_toks ->
         if not (b.text = "0" || lower b.text = "gnd") then
           err_tok b "only grounded bulk (0) is supported";
         let spec =
           match Hashtbl.find_opt models (lower model_tok.text) with
           | Some spec -> spec
           | None -> err_tok model_tok "unknown model %S" model_tok.text
         in
         let pos, pairs = split_params param_toks in
         (match pos with
          | [] -> ()
          | t :: _ -> err_tok t "expected name=value after the model name");
         let w = ref spec.def_w and l = ref spec.def_l in
         List.iter
           (fun ((pn : Lexer.token), pv) ->
             match lower pn.text with
             | "w" -> w := parse_positive env "W" pv
             | "l" -> l := parse_positive env "L" pv
             | other -> err_tok pn "unsupported M instance parameter %S (W and L only)" other)
           pairs;
         let base =
           { M.Level1.kp = spec.kp; vth = spec.vto; lambda = spec.lambda; w = !w; l = !l }
         in
         let model =
           if spec.level = 1 then M.Model.L1 base
           else
             match spec.vc with
             | Some vc -> M.Model.L3 { M.Level3.base; theta = spec.theta; vc }
             | None -> M.Model.L3 (M.Level3.of_level1 ~theta:spec.theta ~vmax:spec.vmax base)
         in
         N.mosfet_model net full ~drain:(resolve d) ~gate:(resolve g) ~source:(resolve s)
           model
       | _ -> err_tok head "M card syntax: M<name> d g s b model [W=v] [L=v]")
    | 'x' ->
      let full = elem_name head ~prefix in
      let pos, param_toks = split_params args in
      (match List.rev pos with
       | [] -> err_tok head "X card syntax: X<name> node... subckt [p=v ...]"
       | (sub_tok : Lexer.token) :: rev_nodes ->
         let node_toks = List.rev rev_nodes in
         let sub =
           match Hashtbl.find_opt subckts (lower sub_tok.text) with
           | Some sub -> sub
           | None -> err_tok sub_tok "unknown subcircuit %S" sub_tok.text
         in
         if List.length node_toks <> List.length sub.pins then
           err_tok sub_tok "subcircuit %s expects %d pins, got %d" sub_tok.text
             (List.length sub.pins) (List.length node_toks);
         if depth >= 32 then
           err_tok head "subcircuit nesting too deep (recursive definition?)";
         let outer_nodes = List.map resolve node_toks in
         let pin_map = List.combine sub.pins outer_nodes in
         let given =
           List.map
             (fun ((pn : Lexer.token), pv) ->
               let name = lower pn.text in
               if not (List.mem_assoc name sub.defaults) then
                 err_tok pn "unknown parameter %S for subcircuit %s" pn.text sub_tok.text;
               (name, parse_value env pv))
             param_toks
         in
         let env' =
           List.map
             (fun (name, default) ->
               (name, Option.value (List.assoc_opt name given) ~default))
             sub.defaults
         in
         let inst_prefix = full ^ "." in
         let resolve' (t : Lexer.token) =
           let s = t.text in
           if s = "0" || lower s = "gnd" then N.ground
           else
             match List.assoc_opt (lower s) pin_map with
             | Some n -> n
             | None -> N.node net (inst_prefix ^ s)
         in
         List.iter
           (fun body_toks ->
             elab ~top ~prefix:inst_prefix ~resolve:resolve' ~env:env' ~depth:(depth + 1)
               body_toks)
           sub.body)
    | _ ->
      err_tok head "unsupported card %S (element cards are R C V I M X)" head.Lexer.text);
    if N.unknowns net > max_unknowns then
      err_tok top "deck elaborates to more than %d unknowns" max_unknowns;
    if !elements > max_elements then
      err_tok top "deck elaborates to more than %d elements" max_elements
  in
  List.iter
    (fun toks ->
      let head : Lexer.token = List.hd toks in
      let t = lower head.text in
      if String.length t > 0 && t.[0] = '.' then
        match t with
        | ".op" | ".dc" | ".tran" | ".ac" -> analysis_cards := toks :: !analysis_cards
        | ".print" | ".probe" -> print_cards := toks :: !print_cards
        | _ -> err_tok head "unknown card %S" head.text
      else elab ~top:head ~prefix:"" ~resolve:resolve_top ~env:[] ~depth:0 toks)
    cards;
  (* Analyses and probes are validated only now, against the fully
     elaborated netlist, so cards may precede the elements they name. *)
  let parse_analysis toks =
    let head : Lexer.token = List.hd toks and args = List.tl toks in
    match lower head.text with
    | ".op" ->
      (match args with
       | [] -> Ast.Op
       | t :: _ -> err_tok (t : Lexer.token) ".op takes no arguments")
    | ".dc" ->
      (match args with
       | [ (src : Lexer.token); a; b; c ] ->
         if String.length src.text < 2 || Char.lowercase_ascii src.text.[0] <> 'v' then
           err_tok src ".dc sweeps a voltage source (V<name>)";
         let elem = String.sub src.text 1 (String.length src.text - 1) in
         if N.vsource_index net elem = None then
           err_tok src "unknown voltage source %S" src.text;
         let start = parse_value [] a and stop = parse_value [] b in
         let step = parse_value [] c in
         if step = 0.0 || not (Float.is_finite step) then
           err_tok c ".dc step must be nonzero and finite";
         if (stop -. start) *. step < 0.0 then
           err_tok c ".dc step has the wrong sign for this range";
         Ast.Dc_sweep { source = elem; start; stop; step }
       | _ -> err_tok head ".dc syntax: .dc V<name> start stop step")
    | ".tran" ->
      (match args with
       | step :: tstop :: _ ->
         (* extra tstart/tmax fields are accepted and ignored *)
         let h = parse_positive [] "step" step in
         let t_stop = parse_positive [] "stop time" tstop in
         if h > t_stop then err_tok step ".tran step exceeds the stop time";
         Ast.Tran { step = h; t_stop }
       | _ -> err_tok head ".tran syntax: .tran step tstop")
    | ".ac" ->
      (match args with
       | [ (kind : Lexer.token); np; f1; f2 ] ->
         if lower kind.text <> "dec" then
           err_tok kind "only .ac DEC sweeps are supported";
         let nv = parse_value [] np in
         let n = int_of_float nv in
         if Float.of_int n <> nv || n <= 0 then
           err_tok np ".ac points per decade must be a positive integer";
         let f_start = parse_positive [] "start frequency" f1 in
         let f_stop = parse_positive [] "stop frequency" f2 in
         if f_start > f_stop then err_tok f1 ".ac start frequency exceeds the stop";
         if !ac_source = None then
           err_tok head ".ac needs an AC source (add 'AC 1' to a V card)";
         Ast.Ac { points_per_decade = n; f_start; f_stop }
       | _ -> err_tok head ".ac syntax: .ac dec points fstart fstop")
    | _ -> assert false
  in
  let parse_print toks =
    let args = List.tl toks in
    let args =
      match args with
      | (t : Lexer.token) :: rest
        when List.mem (lower t.text) [ "op"; "dc"; "tran"; "ac" ] ->
        rest
      | _ -> args
    in
    let rec go acc = function
      | [] -> List.rev acc
      | (f : Lexer.token)
        :: { Lexer.text = "("; _ }
        :: (name : Lexer.token)
        :: { Lexer.text = ")"; _ }
        :: rest -> (
        match lower f.text with
        | "v" ->
          if N.find_node net name.text = None && not (name.text = "0" || lower name.text = "gnd")
          then err_tok name "unknown node %S in probe" name.text;
          go (Ast.Vprobe name.text :: acc) rest
        | "i" ->
          if String.length name.text < 2 || Char.lowercase_ascii name.text.[0] <> 'v' then
            err_tok name "current probes support voltage sources only (i(V<name>))";
          let elem = String.sub name.text 1 (String.length name.text - 1) in
          if N.vsource_index net elem = None then
            err_tok name "unknown voltage source %S in probe" name.text;
          go (Ast.Iprobe elem :: acc) rest
        | _ -> err_tok f "probes are v(node) or i(Vsource)")
      | (t : Lexer.token) :: _ -> err_tok t "probes are v(node) or i(Vsource)"
    in
    go [] args
  in
  let analyses = List.rev_map parse_analysis !analysis_cards in
  let prints = List.concat_map parse_print (List.rev !print_cards) in
  { Ast.title; netlist = net; analyses; prints; ac_source = !ac_source }

let parse src =
  match Lexer.lex src with
  | Error e -> Error e
  | Ok (title, lines) -> (
    try Ok (parse_lines title lines) with
    | Fail e -> Error e
    | Invalid_argument msg | Failure msg ->
      Error { Ast.line = 0; col = 0; msg = "internal: " ^ msg })

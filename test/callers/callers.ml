(* Reports every library export that no production code uses.

   usage: callers.exe -allowlist FILE -lib DIR [-lib DIR]...
            -caller DIR [-caller DIR]... [-skip DIR]...

   It reads the typed trees that [dune build @check] leaves in the build
   directory: the [.cmti] files under each [-lib] root declare what the
   libraries export, and the [.cmt] files under each [-caller] root
   (minus the [-skip] ones) are the production code that may use it.
   A compilation unit is never its own caller. An item is flagged when

   - a library unit is referenced by no other caller unit;
   - an exported value is used by no caller: no caller's identifier
     carries the value's uid, and no caller passes the module that
     declares it whole (as a functor argument, a first-class module or
     an [include]);
   - an optional argument [?x] of an exported value is passed by no
     caller: each application of the value leaves [x] out or binds it to
     a literal [None]; a reference that is not applied passes them all;
   - a settings field is set by no caller: a settings type is a record
     type that some exported value takes as an optional argument, and a
     field is set by a record expression (a literal, or a [with] that
     names the field).

   Each line of the allowlist is an item and its reason, written
   [Module.value -- reason], [Module.value ?arg -- reason] or
   [Module.type.field -- reason]; blank lines and lines starting with
   [#] are skipped. A flagged item that the allowlist names passes. A
   line without a reason fails, and so does a line naming an item that
   is not flagged. Failures go to stdout, one a line, and the exit
   status is 1 when there is any; a count of the items checked goes to
   stderr. *)

open Typedtree
module Uid = Shape.Uid

let usage =
  "callers.exe -allowlist FILE -lib DIR... -caller DIR... [-skip DIR]..."

(* {1 Typed trees} *)

let rec files_under skips dir acc =
  if List.mem dir skips then acc
  else
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then files_under skips path acc
        else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
        then path :: acc
        else acc)
      acc (Sys.readdir dir)

(* dune's generated alias modules ([lib.ml-gen]) name every unit of
   their library; they are nobody's caller. *)
let generated (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_sourcefile with
  | Some f -> Filename.check_suffix f ".ml-gen"
  | None -> true

let read roots skips =
  List.concat_map (fun root -> files_under skips root []) roots
  |> List.sort_uniq compare
  |> List.map Cmt_format.read_cmt
  |> List.filter (fun cmt -> not (generated cmt))

(* [Lattice_spice__Dcop] is reported as [Dcop]. *)
let short unit =
  let n = String.length unit in
  let rec last_sep i =
    if i < 1 then None
    else if unit.[i] = '_' && unit.[i - 1] = '_' then Some (i + 1)
    else last_sep (i - 1)
  in
  match last_sep (n - 1) with Some i -> String.sub unit i (n - i) | None -> unit

(* {1 Declarations} *)

type decl = {
  key : string;  (** the item as the allowlist names it *)
  source : string;
  line : int;
}

let values : (Uid.t, decl) Hashtbl.t = Hashtbl.create 512
let optionals : (Uid.t * string, decl) Hashtbl.t = Hashtbl.create 128
let fields : (Uid.t, decl) Hashtbl.t = Hashtbl.create 128

(* Every module a library interface declares ([Lattice_numerics__Sparse],
   [Lattice_numerics__Sparse.Builder]) with the value uids it declares,
   its submodules' included. *)
let modules : (string, Uid.t list ref) Hashtbl.t = Hashtbl.create 128

(* The fields of each record type library interfaces declare, by
   qualified name ([Lattice_spice__Dcop.options]). *)
let records : (string, (Uid.t * decl) list) Hashtbl.t = Hashtbl.create 64

(* Library units, by every name a caller may reach them by
   ([Lattice_spice__Dcop], [Lattice_spice.Dcop]). *)
let units : (string, string) Hashtbl.t = Hashtbl.create 128

let register_unit unit =
  Hashtbl.replace units unit unit;
  let s = short unit in
  if s <> unit then
    Hashtbl.replace units (String.sub unit 0 (String.length unit - String.length s - 2) ^ "." ^ s) unit

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* The optional arguments of a value's type, with each one's payload. *)
let rec optional_args ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, arg, rest, _) -> (l, arg) :: optional_args rest
  | Tarrow (_, _, rest, _) -> optional_args rest
  | _ -> []

(* The names of a path, with each module alias of [aliases] replaced by
   the path it stands for. *)
let rec path_names aliases = function
  | Path.Pident id -> (
      match Ident.Tbl.find_opt aliases id with
      | Some p -> path_names aliases p
      | None -> [ Ident.name id ])
  | Pdot (p, s) -> path_names aliases p @ [ s ]
  | Papply (p, _) | Pextra_ty (p, _) -> path_names aliases p

(* The unit a list of names starts in, and the names left after it. *)
let resolve_unit names =
  match names with
  | a :: rest when Hashtbl.mem units a -> Some (Hashtbl.find units a, rest)
  | a :: b :: rest when Hashtbl.mem units (a ^ "." ^ b) ->
      Some (Hashtbl.find units (a ^ "." ^ b), rest)
  | _ -> None

(* Interfaces first: a settings type may be declared by a unit read
   after the one whose value takes it, so payload types are matched
   against [records] once every interface is in. *)
let pending : (string * string list * string) list ref = ref []

let rec declare_items unit source prefix mods items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let uid = vd.val_val.val_uid in
          let key = short unit ^ "." ^ prefix ^ vd.val_name.txt in
          let d = { key; source; line = line_of vd.val_loc } in
          Hashtbl.replace values uid d;
          List.iter (fun m -> m := uid :: !m) mods;
          List.iter
            (fun (l, payload) ->
              Hashtbl.replace optionals (uid, l) { d with key = key ^ " ?" ^ l };
              match Types.get_desc payload with
              | Tconstr (_, [ t ], _) -> (
                  match Types.get_desc t with
                  | Tconstr (p, _, _) ->
                      pending := (unit, path_names (Ident.Tbl.create 0) p, prefix) :: !pending
                  | _ -> ())
              | _ -> ())
            (optional_args vd.val_val.val_type)
      | Tsig_type (_, decls) ->
          List.iter
            (fun td ->
              match td.typ_type.type_kind with
              | Type_record (lds, _) ->
                  let type_key = short unit ^ "." ^ prefix ^ td.typ_name.txt in
                  Hashtbl.replace records (unit ^ "." ^ prefix ^ td.typ_name.txt)
                    (List.map
                       (fun (ld : Types.label_declaration) ->
                         ( ld.ld_uid,
                           { key = type_key ^ "." ^ Ident.name ld.ld_id; source;
                             line = line_of ld.ld_loc } ))
                       lds)
              | _ -> ())
            decls
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
          let own = ref [] in
          Hashtbl.replace modules (unit ^ "." ^ prefix ^ m) own;
          declare_items unit source (prefix ^ m ^ ".") (own :: mods) sg.sig_items
      | _ -> ())
    items

(* A settings type: the payload of an optional argument, resolved
   within the declaring interface ([options], [Dcop.options],
   [Lattice_spice.Dcop.options]). *)
let settle_pending () =
  List.iter
    (fun (unit, names, prefix) ->
      let found =
        match names with
        | [ t ] -> Hashtbl.find_opt records (unit ^ "." ^ prefix ^ t)
        | _ -> (
            match resolve_unit names with
            | Some (u, rest) -> Hashtbl.find_opt records (u ^ "." ^ String.concat "." rest)
            | None -> None)
      in
      Option.iter (List.iter (fun (uid, d) -> Hashtbl.replace fields uid d)) found)
    !pending

(* {1 Uses} *)

let used_values : (Uid.t, unit) Hashtbl.t = Hashtbl.create 1024
let passed : (Uid.t * string, unit) Hashtbl.t = Hashtbl.create 256
let set_fields : (Uid.t, unit) Hashtbl.t = Hashtbl.create 256
let referenced : (string, unit) Hashtbl.t = Hashtbl.create 128

let unit_of_uid = function Uid.Item { comp_unit; _ } -> Some comp_unit | _ -> None

(* A use counts only outside the unit that declares the item. *)
let foreign caller uid = unit_of_uid uid <> Some caller

let scan_unit (cmt : Cmt_format.cmt_infos) str =
  let caller = cmt.cmt_modname in
  (* [module Sp = Lattice_spice] and the like, so that [Sp.Dcop.t]
     resolves like [Lattice_spice.Dcop.t]. *)
  let aliases = Ident.Tbl.create 16 in
  let names = path_names aliases in
  let unit_of_path p = Option.map fst (resolve_unit (names p)) in
  let reference p =
    match unit_of_path p with
    | Some u when u <> caller -> Hashtbl.replace referenced u ()
    | _ -> ()
  in
  let reference_uid uid =
    match unit_of_uid uid with
    | Some u when u <> caller && Hashtbl.mem units u -> Hashtbl.replace referenced u ()
    | _ -> ()
  in
  let use_value uid =
    reference_uid uid;
    if foreign caller uid then Hashtbl.replace used_values uid ()
  in
  let pass uid l = if foreign caller uid then Hashtbl.replace passed (uid, l) () in
  (* A module passed whole uses every value it declares. *)
  let pass_whole (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> (
        let ns = names p in
        let key =
          match resolve_unit ns with
          | Some (u, rest) -> String.concat "." (u :: rest)
          | None -> String.concat "." ns
        in
        match Hashtbl.find_opt modules key with
        | Some uids -> List.iter use_value !uids
        | None -> ())
    | _ -> ()
  in
  let bind_alias id (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
        Ident.Tbl.add aliases id p
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let expr (it : Tast_iterator.iterator) (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, vd) ->
        (* not applied: every optional argument counts as passed *)
        reference p;
        use_value vd.val_uid;
        List.iter (fun (l, _) -> pass vd.val_uid l) (optional_args vd.val_type)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) ->
        reference p;
        use_value vd.val_uid;
        List.iter
          (fun (label, arg) ->
            (match (label, arg) with
            | Asttypes.Optional _, Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); _ }
              ->
                ()
            | Optional l, Some _ -> pass vd.val_uid l
            | _ -> ());
            Option.iter (it.expr it) arg)
          args
    | Texp_record { fields = fs; _ } ->
        Array.iter
          (fun ((lbl : Types.label_description), def) ->
            reference_uid lbl.lbl_uid;
            match def with
            | Overridden _ when foreign caller lbl.lbl_uid ->
                Hashtbl.replace set_fields lbl.lbl_uid ()
            | _ -> ())
          fs;
        default.expr it e
    | Texp_construct (_, cd, _) ->
        reference_uid cd.cstr_uid;
        default.expr it e
    | Texp_field (_, _, lbl) | Texp_setfield (_, _, lbl, _) ->
        reference_uid lbl.lbl_uid;
        default.expr it e
    | Texp_pack me ->
        pass_whole me;
        default.expr it e
    | Texp_letmodule (Some id, _, _, me, _) ->
        bind_alias id me;
        default.expr it e
    | _ -> default.expr it e
  in
  let pat (type k) (it : Tast_iterator.iterator) (p : k general_pattern) =
    (match p.pat_desc with
    | Tpat_construct (_, cd, _, _) -> reference_uid cd.cstr_uid
    | Tpat_record (fs, _) -> List.iter (fun (_, (l : Types.label_description), _) -> reference_uid l.lbl_uid) fs
    | _ -> ());
    default.pat it p
  in
  let typ it (t : core_type) =
    (match t.ctyp_desc with Ttyp_constr (p, _, _) -> reference p | _ -> ());
    default.typ it t
  in
  let module_expr it (me : module_expr) =
    (match me.mod_desc with
    | Tmod_ident (p, _) -> reference p
    | Tmod_apply (_, arg, _) -> pass_whole arg
    | _ -> ());
    default.module_expr it me
  in
  let module_type it (mt : module_type) =
    (match mt.mty_desc with Tmty_ident (p, _) | Tmty_alias (p, _) -> reference p | _ -> ());
    default.module_type it mt
  in
  let structure_item it (si : structure_item) =
    (match si.str_desc with
    | Tstr_module { mb_id = Some id; mb_expr; _ } -> bind_alias id mb_expr
    | Tstr_include { incl_mod; _ } -> pass_whole incl_mod
    | _ -> ());
    default.structure_item it si
  in
  let it = { default with expr; pat; typ; module_expr; module_type; structure_item } in
  it.structure it str

(* {1 Report} *)

(* ["Dcop.solve ?x0 -- reason"] is [Some ("Dcop.solve ?x0", "reason")]. *)
let split_entry line =
  let sep = " -- " in
  let n = String.length line and k = String.length sep in
  let rec find i =
    if i + k > n then None else if String.sub line i k = sep then Some i else find (i + 1)
  in
  Option.map (fun i -> (String.sub line 0 i, String.sub line (i + k) (n - i - k))) (find 0)

let () =
  let allowlist = ref "" and libs = ref [] and callers = ref [] and skips = ref [] in
  let add r d = r := d :: !r in
  Arg.parse
    [
      ("-allowlist", Arg.Set_string allowlist, "FILE  allowlisted items, one a line");
      ("-lib", Arg.String (add libs), "DIR  a root of library .cmti/.cmt files");
      ("-caller", Arg.String (add callers), "DIR  a root of caller .cmt files");
      ("-skip", Arg.String (add skips), "DIR  a directory under a root to leave out");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !allowlist = "" || !libs = [] || !callers = [] then (
    prerr_endline usage;
    exit 2);
  let lib_files = read !libs !skips in
  let lib_units =
    List.filter_map
      (fun (cmt : Cmt_format.cmt_infos) ->
        match cmt.cmt_annots with
        | Implementation _ -> Some (cmt.cmt_modname, Option.get cmt.cmt_sourcefile)
        | _ -> None)
      lib_files
  in
  List.iter (fun (u, _) -> register_unit u) lib_units;
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with
      | Interface sg ->
          let unit = cmt.cmt_modname in
          let own = ref [] in
          Hashtbl.replace modules unit own;
          declare_items unit (Option.get cmt.cmt_sourcefile) "" [ own ] sg.sig_items
      | _ -> ())
    lib_files;
  settle_pending ();
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with Implementation str -> scan_unit cmt str | _ -> ())
    (read !callers !skips);
  let flagged = ref [] in
  let flag d what = flagged := (d, what) :: !flagged in
  List.iter
    (fun (u, source) ->
      if not (Hashtbl.mem referenced u) then
        flag
          { key = short u; source; line = 1 }
          "no other unit references the module")
    lib_units;
  Hashtbl.iter (fun uid d -> if not (Hashtbl.mem used_values uid) then flag d "no caller uses it") values;
  Hashtbl.iter
    (fun k d -> if not (Hashtbl.mem passed k) then flag d "no caller passes it")
    optionals;
  Hashtbl.iter (fun uid d -> if not (Hashtbl.mem set_fields uid) then flag d "no caller sets it") fields;
  let entries =
    In_channel.with_open_text !allowlist In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let listed = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match split_entry line with
      | Some (item, reason) when String.trim reason <> "" -> Hashtbl.replace listed item ()
      | _ -> fail "%s: entry without a reason: %s" !allowlist line)
    entries;
  let flagged_keys = Hashtbl.create 64 in
  List.iter
    (fun (d, what) ->
      Hashtbl.replace flagged_keys d.key ();
      if not (Hashtbl.mem listed d.key) then fail "%s:%d: %s: %s" d.source d.line d.key what)
    (List.sort (fun (a, _) (b, _) -> compare (a.source, a.line, a.key) (b.source, b.line, b.key)) !flagged);
  List.iter
    (fun item ->
      if not (Hashtbl.mem flagged_keys item) then
        fail "%s: %s is not flagged any more, drop its entry" !allowlist item)
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys listed)));
  let failures = List.rev !failures in
  List.iter print_endline failures;
  Printf.eprintf
    "callers: %d exported values, %d optional arguments, %d settings fields; %d flagged, %d \
     allowlisted\n"
    (Hashtbl.length values) (Hashtbl.length optionals) (Hashtbl.length fields)
    (List.length !flagged) (Hashtbl.length listed);
  exit (if failures = [] then 0 else 1)

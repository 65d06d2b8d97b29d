(** A small Boolean-expression language for examples and the CLI.

    Grammar (usual precedences, tightest first):
    {v
      expr    ::= term ('+' term | '|' term)*
      term    ::= factor ('&' factor | '*' factor | factor)*   (juxtaposition = AND)
      factor  ::= '!' factor | atom '\'' * | atom
      atom    ::= ident | '0' | '1' | '(' expr ')'
    v}
    Postfix ['] and prefix [!] both complement. Variables are named by
    identifiers ([a-z A-Z 0-9 _], starting with a letter or underscore) and
    numbered in order of first appearance. *)

type t =
  | Const of bool
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t

exception Parse_error of string

(** [parse s] parses an expression, returning the AST and the variable
    names in index order. Also accepts ['^'] for XOR. *)
val parse : string -> t * string array

(** [to_truthtable e ~nvars] tabulates the expression. *)
val to_truthtable : t -> nvars:int -> Truthtable.t


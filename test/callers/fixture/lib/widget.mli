(* Planted items for the caller check's own test: see ../dune. *)

type config = { width : int; slack : int }

val default : config

(* [?config] makes [config] a settings type; only the test sets [slack],
   and only the test passes [?scale]. *)
val make : ?config:config -> ?scale:int -> unit -> int

(* bin calls it, so its allowlist entry is stale *)
val used : int -> int

(* only the test calls it *)
val only_tested : int -> int

(* only the test calls it, and the allowlist names it *)
val debug : int -> string

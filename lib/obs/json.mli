(** Minimal JSON value type, printer and parser.

    The observability layer emits machine-readable artifacts (run
    reports, Chrome traces, pass tables) and the test-suite checks that
    they round-trip; neither side wants an external dependency, so this
    module implements exactly the JSON subset those artifacts use.
    Non-finite floats print as [null] (JSON has no inf/nan). *)

exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string

val of_string : string -> t
(** Raises {!Parse_error} with an offset on malformed input. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val to_list : t -> t list option

val string_value : t -> string option

val number_value : t -> float option
(** Numeric value of [Int] or [Float]. *)

val read_file : string -> (string, string) result
(** Whole contents of a file; [Error] carries the [Sys_error] message
    (which names the path) instead of raising. *)

val load : string -> (t, string) result
(** {!read_file} then {!of_string}: [Error] on an unreadable file or
    on malformed JSON (prefixed with the path). *)

val save : t -> string -> unit
(** Pretty-print to a file with a trailing newline. *)

(** Minimal JSON for the wire protocol and structured CLI output.

    The toolchain image carries no JSON library, so the service
    brings its own: a value type, a deterministic encoder (object
    fields are emitted in construction order, floats printed with
    ["%.12g"]), and a recursive-descent parser. Deterministic
    encoding is load-bearing: the multi-domain stress test compares
    encoded responses byte for byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line, no trailing newline; UTF-8 passed through, control
    characters and quotes escaped. Non-finite floats encode as
    [null] (JSON has no NaN). *)

val to_buffer : Buffer.t -> t -> unit

val parse : string -> (t, string) result
(** Errors carry a byte offset. Numbers without [.], [e] or [E]
    parse as [Int]; anything else as [Float]. Total: malformed input,
    including a bad [\u] escape or arrays and objects nested deeper
    than 256 levels, is an [Error], never an exception. *)

(** {1 Accessors} — shallow, total *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on absent field or non-object. *)

val to_int_opt : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

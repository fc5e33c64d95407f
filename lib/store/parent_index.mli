(** The parent/child-count index behind {e Enhanced TermJoin}
    (Sec. 6.1): given a node, return its parent {e along with the
    number of children of this parent} without touching data pages. *)

type entry = {
  parent : int;  (** start key of the parent; [-1] for a root *)
  child_count : int;
  level : int;
  end_ : int;
  tag : int;
}

type t

type builder

val builder : unit -> builder

val add : builder -> doc:int -> start:int -> entry -> unit
(** Entries of one document must be added in start order, documents
    in id order. *)

val freeze : builder -> t

val merge : base:t -> remap:int array -> delta:(t * (int -> int)) option -> t
(** The index of base document [d] under id [remap.(d)] when that is
    [>= 0] (kept ids must be [0, 1, ...] in base order), followed by
    every delta document with its tags mapped by the given function.
    Kept documents share their arrays with [base]. *)

val find : t -> doc:int -> start:int -> entry option
(** Binary search over the per-document start array. *)

val parent_of : t -> doc:int -> start:int -> int option
(** Start key of the parent; [None] when [start] is unknown or a
    root. *)

val entry_count : t -> int

(** {1 Serialization}

    A TIXDB004 image stores this index as its own section, so an
    open decodes it directly instead of rebuilding it by scanning
    every element page. *)

val save : t -> Buffer.t -> unit

val load : Ir.Codec.buf -> int -> t * int
(** [(index, next_off)]; inverse of {!save}. Raises
    [Ir.Codec.Truncated] on a short buffer. *)

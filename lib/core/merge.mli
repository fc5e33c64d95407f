(** The monotone θ threshold shared by every partitioned backend:
    local domain fan-out ({!Exec.Par}) and remote shard
    scatter-gather ({!Dist.Coordinator}) prune against this one
    implementation, so the invariant cannot diverge. Both merge their
    ranges' answers through a {!Top_k} heap whose tie order is the
    unpartitioned run's. *)

(** Monotone shared pruning threshold. Each range publishes its local
    k-th-best score; θ is the running max, so it is always ≤ the final
    global cutoff and a bound may be pruned against it only with a
    strict compare ([bound < θ]) — equality can still win the global
    doc-id tie-break. *)
module Theta : sig
  type t = float Atomic.t

  val make : ?seed:float -> unit -> t
  (** Fresh threshold, [neg_infinity] unless [seed]ed — e.g. by a
      coordinator relaying another shard's published cutoff. *)

  val get : t -> float

  val publish : t -> float -> unit
  (** Monotone max: raises θ to the given cutoff if higher, never
      lowers it. Safe under concurrent publishers (CAS retry). *)
end

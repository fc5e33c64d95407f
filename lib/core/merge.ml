(* The monotone θ threshold that makes cross-range pruning sound.

   One ranked query fanned out over disjoint ascending doc ranges —
   local partitions on domains (lib/exec) or remote shards behind a
   coordinator (lib/dist) — prunes against one threshold, so both
   share one implementation of the invariant: θ only ever rises, it
   is always ≤ the final global cutoff, and pruning compares STRICTLY
   ([bound < θ]) because a score exactly equal to the final cutoff can
   still win the global doc-id tie-break. Each backend merges its
   ranges' answers through a {!Top_k} heap with the single run's tie
   order, so the merged answer is the unpartitioned one. *)

module Theta = struct
  type t = float Atomic.t

  let make ?(seed = neg_infinity) () = Atomic.make seed
  let get = Atomic.get

  let publish t c =
    (* monotone max via CAS: physical equality on the box returned by
       Atomic.get makes the retry loop sound *)
    let rec bump () =
      let cur = Atomic.get t in
      if c > cur && not (Atomic.compare_and_set t cur c) then bump ()
    in
    bump ()
end

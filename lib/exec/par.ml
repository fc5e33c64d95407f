(* Intra-query parallel execution.

   One query is split into document-range chunks ({!Partition.plan}),
   each chunk runs a range-restricted instance of the access method on
   its own domain against the shared immutable snapshot, and the
   per-chunk results are merged deterministically:

   - boolean/structural results (TermJoin, GenMeet, PhraseFinder) come
     back per chunk in document order over disjoint ascending ranges,
     so the merge is concatenation in chunk order — byte-identical to
     the sequential document-order output;
   - ranked top-k chunks each return their local top-k under the total
     order (score desc, doc asc); the merge feeds them into one top-k
     heap under the same order. Cross-chunk max-score pruning shares
     the best k-th score seen by any chunk through an atomic
     ([Ranked.top_k_docs ~shared_threshold]), which only ever prunes
     documents strictly below the final cutoff — the merged result is
     exactly the sequential one, ties included.

   Resource limits come in as an optional {!Core.Governor.shared}
   budget: every chunk attaches a private governor, ticks it for the
   work it does, and the first chunk to breach trips the budget once
   for the whole query. Tracing fans out the same way — each chunk
   records into a private tracer whose finished tree is grafted, in
   chunk order, under one "Parallel" span of the caller's tracer. *)

let chunks_per_domain = 4
(* more chunks than domains so the shared work index load-balances
   skewed ranges; each extra chunk costs one cursor re-seek *)

let resolve_ranges ?ranges ~parallelism ctx ~terms =
  match ranges with
  | Some (_ :: _ as r) -> r
  | Some [] | None ->
    Partition.plan ctx ~terms ~chunks:(parallelism * chunks_per_domain)

(* Fan [body] out over [ranges], then [merge] the per-chunk values in
   chunk order. [merge] also returns the output cardinality for the
   "Parallel" trace span. *)
let fan_out ~trace ~shared ~parallelism ~method_ ~ranges ~body ~merge =
  let rs = Array.of_list ranges in
  let n = Array.length rs in
  let slots = Array.make n None in
  let span_trees = Array.make n None in
  let traced = Core.Trace.enabled trace in
  if traced then begin
    Core.Trace.enter trace "Parallel";
    Core.Trace.annotate trace "method" method_;
    Core.Trace.annotate trace "partitions" (string_of_int n);
    Core.Trace.annotate trace "domains" (string_of_int parallelism)
  end;
  let task i =
    let lo, hi = rs.(i) in
    let gov = Option.map Core.Governor.attach shared in
    let tr = if traced then Core.Trace.make () else Core.Trace.disabled in
    let res =
      match
        Core.Trace.enter tr "Partition";
        Core.Trace.annotate tr "lo" (string_of_int lo);
        Core.Trace.annotate tr "hi"
          (if hi = max_int then "end" else string_of_int hi);
        let v = body ~gov ~trace:tr (lo, hi) in
        (match gov with Some g -> Core.Governor.settle g | None -> ());
        Core.Trace.leave tr;
        v
      with
      | v -> Ok v
      | exception e ->
        Core.Trace.unwind tr;
        Error e
    in
    slots.(i) <- Some res;
    if traced then span_trees.(i) <- Core.Trace.root tr
  in
  Pool.run ~domains:parallelism ~n task;
  let fail e =
    if traced then Core.Trace.leave trace;
    raise e
  in
  (* a tripped shared budget outranks chunk-local failures: every
     breaching chunk carries the same violation, report it once *)
  (match Option.map Core.Governor.shared_violation shared with
  | Some (Some v) -> fail (Core.Governor.Resource_exhausted v)
  | Some None | None -> ());
  Array.iter
    (function Some (Error e) -> fail e | Some (Ok _) | None -> ())
    slots;
  let vals =
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      slots
  in
  let result, count = merge vals in
  if traced then begin
    Array.iter (Option.iter (Core.Trace.attach trace)) span_trees;
    Core.Trace.leave ~output:count trace
  end;
  result

let ticker gov =
  match gov with
  | Some g -> fun () -> Core.Governor.tick g
  | None -> fun () -> ()

(* Fan a document-ordered node stream out over [ranges]: each chunk
   runs [run ~trace ~doc_range ~emit] on its own domain, ticks its
   governor per emitted node and sorts its nodes into document order.
   The ranges are disjoint and ascending, so concatenation in chunk
   order IS the global document order. *)
let document_ordered ~trace ~shared ~parallelism ~method_ ~ranges run =
  fan_out ~trace ~shared ~parallelism ~method_ ~ranges
    ~body:(fun ~gov ~trace doc_range ->
      let acc = ref [] in
      let tick = ticker gov in
      let (_ : int) =
        run ~trace ~doc_range ~emit:(fun nd ->
            tick ();
            acc := nd :: !acc)
      in
      List.sort Access.Scored_node.compare_pos !acc)
    ~merge:(fun vals ->
      let nodes = List.concat (Array.to_list vals) in
      (nodes, List.length nodes))

let score ?(trace = Core.Trace.disabled) ?shared ?ranges ?mode ?weights
    ~parallelism access ctx ~terms =
  let ranges = resolve_ranges ?ranges ~parallelism ctx ~terms in
  document_ordered ~trace ~shared ~parallelism
    ~method_:(Access.Pattern_exec.access_operator access) ~ranges
    (fun ~trace ~doc_range ~emit ->
      Access.Pattern_exec.score ~trace ?mode ?weights ~doc_range access ctx
        ~terms ~emit ())

let term_join ?trace ?shared ?ranges ?(variant = Access.Term_join.Plain) ?mode
    ?weights ~parallelism ctx ~terms =
  score ?trace ?shared ?ranges ?mode ?weights ~parallelism
    (Access.Pattern_exec.Term_join variant) ctx ~terms

let gen_meet ?trace ?shared ?ranges ?mode ?weights ~parallelism ctx ~terms =
  score ?trace ?shared ?ranges ?mode ?weights ~parallelism
    (Access.Pattern_exec.Gen_meet { use_skips = true })
    ctx ~terms

let phrase ?(trace = Core.Trace.disabled) ?shared ?ranges ~parallelism ctx
    ~phrase =
  let ranges = resolve_ranges ?ranges ~parallelism ctx ~terms:phrase in
  document_ordered ~trace ~shared ~parallelism ~method_:"PhraseFinder" ~ranges
    (fun ~trace ~doc_range ~emit ->
      Access.Phrase_finder.run ~trace ~doc_range ctx ~phrase ~emit ())

let top_k_docs ?(trace = Core.Trace.disabled) ?shared ?ranges ?weights ?theta
    ~parallelism ctx ~terms ~k =
  let ranges = resolve_ranges ?ranges ~parallelism ctx ~terms in
  (* [?theta] seeds the shared threshold with a cutoff already proven
     elsewhere (a distributed coordinator relaying other shards'
     published k-th-best): pruning against it stays exact because the
     seed is itself a monotone θ value, always ≤ the global cutoff *)
  let shared_threshold = Core.Merge.Theta.make ?seed:theta () in
  fan_out ~trace ~shared ~parallelism ~method_:"RankedTopK" ~ranges
    ~body:(fun ~gov ~trace (lo, hi) ->
      let docs =
        Access.Ranked.top_k_docs ~trace ?weights ~doc_range:(lo, hi)
          ~shared_threshold ctx ~terms ~k
      in
      (match gov with
      | Some g -> Core.Governor.tick_n g (List.length docs)
      | None -> ());
      docs)
    ~merge:(fun vals ->
      (* every chunk's local top-k into one heap whose tie puts the
         lower document id first, as the sequential run's does *)
      let heap = Core.Top_k.create ~tie:(fun a b -> compare b a) (max 1 k) in
      Array.iter
        (List.iter (fun (d, s) -> Core.Top_k.add heap ~score:s d))
        vals;
      let top =
        List.map (fun (s, d) -> (d, s)) (Core.Top_k.to_sorted_list heap)
      in
      (top, List.length top))

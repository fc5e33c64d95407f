type emitter = emit:(Scored_node.t -> unit) -> unit -> int

let top_k k run =
  let acc = Core.Top_k.create k in
  let _ = run ~emit:(fun n -> Core.Top_k.add acc ~score:n.Scored_node.score n) () in
  List.map snd (Core.Top_k.to_sorted_list acc)

(* ------------------------------------------------------------------ *)
(* Top-K document retrieval with max-score pruning.

   Document-at-a-time evaluation of score(d) = Σ_i w_i · tf_i(d) over
   the query terms. With skips enabled this is the MaxScore algorithm
   over the block posting lists: terms whose summed score bounds
   cannot lift a document past the current K-th score become
   "non-essential" and are only probed (by seeking, skipping whole
   blocks) for documents that essential terms propose; candidate
   documents whose block-level upper bound (per-block max_tf) cannot
   beat the cutoff are skipped with seek_doc without decoding their
   postings. With skips disabled the same loop degrades to exhaustive
   DAAT scoring; both paths return identical results. *)

type tstate = {
  t_idx : int;  (* original term position, for deterministic summing *)
  t_w : float;
  t_bound : float;  (* w · max_tf: the term's score ceiling *)
  t_cur : Ir.Postings.cursor;
  mutable t_head : Ir.Postings.occ option;
}

let top_k_docs_inner ?(use_skips = true) ?weights ?doc_range ?shared_threshold
    ctx ~terms ~k =
  let terms = Array.of_list terms in
  let nt = Array.length terms in
  let weights = match weights with Some w -> w | None -> Array.make nt 1.0 in
  if Array.length weights <> nt then
    invalid_arg "Ranked.top_k_docs: one weight per term";
  if k <= 0 then []
  else begin
    let lo, hi = match doc_range with Some r -> r | None -> (0, max_int) in
    let clip o =
      match o with
      | Some (h : Ir.Postings.occ) when h.doc >= hi -> None
      | Some _ | None -> o
    in
    let states =
      Array.to_list terms
      |> List.mapi (fun i t -> (i, t))
      |> List.filter_map (fun (i, t) ->
             match Ir.Inverted_index.lookup ctx.Ctx.index t with
             | None -> None
             | Some p when Ir.Postings.length p = 0 -> None
             | Some p ->
               let cur = Ir.Postings.cursor p in
               Some
                 {
                   t_idx = i;
                   t_w = weights.(i);
                   t_bound = weights.(i) *. float_of_int (Ir.Postings.max_tf p);
                   t_cur = cur;
                   t_head =
                     clip
                       (if lo = 0 then Ir.Postings.next cur
                        else Ir.Postings.seek_doc cur lo);
                 })
    in
    let st =
      Array.of_list (List.sort (fun a b -> compare a.t_bound b.t_bound) states)
    in
    let n = Array.length st in
    if n = 0 then []
    else begin
      let prefix = Array.make n 0. in
      Array.iteri
        (fun i s ->
          prefix.(i) <- (if i = 0 then 0. else prefix.(i - 1)) +. s.t_bound)
        st;
      (* lower doc ids win score ties, so the K-th rank is cut by the
         same (score desc, doc asc) total order the result is listed
         in and the parallel merge uses — without this the heap would
         keep an arbitrary tied doc and partitioned execution could
         disagree with sequential *)
      let heap = Core.Top_k.create ~tie:(fun a b -> compare b a) k in
      let theta () =
        match Core.Top_k.cutoff heap with Some c -> c | None -> neg_infinity
      in
      (* Cross-partition pruning: θ_shared is the monotone max of
         every partition's published k-th-best score, so it is always
         ≤ the final global cutoff. A bound may be pruned against it
         only with a STRICT compare — a score exactly equal to the
         final cutoff can still win the global doc-id tie-break, so
         only [bound < θ_shared] guarantees the document cannot
         appear in (or reorder) the merged top-k. *)
      let shared_theta () =
        match shared_threshold with
        | Some a -> Atomic.get a
        | None -> neg_infinity
      in
      (* [true] when a document whose score ceiling is [bound] can be
         skipped without affecting the merged result. *)
      let cannot_enter bound =
        (not (Core.Top_k.would_enter heap bound)) || bound < shared_theta ()
      in
      let publish () =
        match (shared_threshold, Core.Top_k.cutoff heap) with
        | Some a, Some c -> Core.Merge.Theta.publish a c
        | (Some _ | None), _ -> ()
      in
      (* number of non-essential terms: the longest low-bound prefix
         whose bounds sum to at most the local cutoff (or strictly
         below the shared one) *)
      let ness () =
        if not use_skips then 0
        else begin
          let th = theta () in
          let sh = shared_theta () in
          let rec go m =
            if m < n && (prefix.(m) <= th || prefix.(m) < sh) then go (m + 1)
            else m
          in
          go 0
        end
      in
      let tf = Array.make n 0 in
      let count_run i d =
        (* exact tf of doc [d] on state [i]; head is at [d] *)
        let c = ref 0 in
        let rec go () =
          match st.(i).t_head with
          | Some h when h.doc = d ->
            incr c;
            st.(i).t_head <- clip (Ir.Postings.next st.(i).t_cur);
            go ()
          | Some _ | None -> ()
        in
        go ();
        tf.(i) <- !c
      in
      let rec loop () =
        let m = ness () in
        if m < n then begin
          let d =
            let best = ref max_int in
            for i = m to n - 1 do
              match st.(i).t_head with
              | Some h when h.doc < !best -> best := h.doc
              | Some _ | None -> ()
            done;
            !best
          in
          if d < max_int then begin
            Array.fill tf 0 n 0;
            (* block-refined upper bound over the essential terms
               parked on [d] plus the non-essential score ceiling *)
            let shallow = ref (if m > 0 then prefix.(m - 1) else 0.) in
            for i = m to n - 1 do
              match st.(i).t_head with
              | Some h when h.doc = d ->
                shallow :=
                  !shallow
                  +. (st.(i).t_w
                     *. float_of_int (Ir.Postings.block_max_tf st.(i).t_cur))
              | Some _ | None -> ()
            done;
            if use_skips && cannot_enter !shallow then begin
              (* the whole document cannot reach the heap: skip its
                 postings block-wise on every parked cursor *)
              for i = m to n - 1 do
                match st.(i).t_head with
                | Some h when h.doc = d ->
                  st.(i).t_head <-
                    clip (Ir.Postings.seek_doc st.(i).t_cur (d + 1))
                | Some _ | None -> ()
              done
            end
            else begin
              (* exact essential contributions *)
              let s = ref 0. in
              for i = m to n - 1 do
                match st.(i).t_head with
                | Some h when h.doc = d ->
                  count_run i d;
                  s := !s +. (st.(i).t_w *. float_of_int tf.(i))
                | Some _ | None -> ()
              done;
              (* probe non-essential terms, highest bound first,
                 stopping as soon as the residual ceiling fails *)
              let abandoned = ref false in
              let i = ref (m - 1) in
              while (not !abandoned) && !i >= 0 do
                if cannot_enter (!s +. prefix.(!i)) then abandoned := true
                else begin
                  let sti = st.(!i) in
                  (match sti.t_head with
                  | Some h when h.doc < d ->
                    sti.t_head <- clip (Ir.Postings.seek_doc sti.t_cur d)
                  | Some _ | None -> ());
                  (match sti.t_head with
                  | Some h when h.doc = d ->
                    let below = if !i > 0 then prefix.(!i - 1) else 0. in
                    let refined =
                      !s
                      +. (sti.t_w
                         *. float_of_int (Ir.Postings.block_max_tf sti.t_cur))
                      +. below
                    in
                    if cannot_enter refined then abandoned := true
                    else begin
                      count_run !i d;
                      s := !s +. (sti.t_w *. float_of_int tf.(!i))
                    end
                  | Some _ | None -> ());
                  decr i
                end
              done;
              if not !abandoned then begin
                (* deterministic summation in original term order, so
                   the pruned and exhaustive paths emit bit-identical
                   scores *)
                let contribs = Array.make nt 0. in
                Array.iteri
                  (fun si c ->
                    if c > 0 then
                      contribs.(st.(si).t_idx) <- st.(si).t_w *. float_of_int c)
                  tf;
                let total = Array.fold_left ( +. ) 0. contribs in
                if total > 0. then begin
                  Core.Top_k.add heap ~score:total d;
                  publish ()
                end
              end
            end;
            loop ()
          end
        end
      in
      loop ();
      List.map (fun (s, d) -> (d, s)) (Core.Top_k.to_sorted_list heap)
    end
  end

let top_k_docs ?(trace = Core.Trace.disabled) ?use_skips ?weights ?doc_range
    ?shared_threshold ctx ~terms ~k =
  if not (Core.Trace.enabled trace) then
    top_k_docs_inner ?use_skips ?weights ?doc_range ?shared_threshold ctx
      ~terms ~k
  else begin
    let input =
      List.fold_left
        (fun acc t -> acc + Ir.Inverted_index.collection_freq ctx.Ctx.index t)
        0 terms
    in
    Core.Trace.enter ~input trace "RankedTopK";
    Core.Trace.annotate trace "k" (string_of_int k);
    match
      top_k_docs_inner ?use_skips ?weights ?doc_range ?shared_threshold ctx
        ~terms ~k
    with
    | l ->
      Core.Trace.leave ~output:(List.length l) trace;
      l
    | exception e ->
      Core.Trace.leave trace;
      raise e
  end

let above v run =
  let acc = ref [] in
  let _ =
    run ~emit:(fun n -> if n.Scored_node.score > v then acc := n :: !acc) ()
  in
  List.sort Scored_node.compare_pos !acc

let histogram ?buckets run =
  let scores = ref [] in
  let _ = run ~emit:(fun n -> scores := n.Scored_node.score :: !scores) () in
  Store.Histogram.of_values ?buckets !scores

let top_fraction ~q run =
  let h = histogram run in
  let cut = Store.Histogram.quantile h q in
  above cut run

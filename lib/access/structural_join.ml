type item = Store.Tag_index.item = {
  doc : int;
  start : int;
  end_ : int;
  level : int;
}

let join ?(trace = Core.Trace.disabled) ?(axis = `Ancestor_descendant)
    ~ancestors ~descendants ~emit () =
  Core.Trace.span_count
    ~input:(Array.length ancestors + Array.length descendants)
    trace "StructuralJoin"
  @@ fun () ->
  let emitted = ref 0 in
  let stack = ref [] in
  let na = Array.length ancestors and nd = Array.length descendants in
  let ai = ref 0 and di = ref 0 in
  let key i = (i.doc, i.start) in
  let pop_before (doc, k) =
    let rec go () =
      match !stack with
      | top :: rest when top.doc < doc || (top.doc = doc && top.end_ < k) ->
        stack := rest;
        go ()
      | _ :: _ | [] -> ()
    in
    go ()
  in
  while !ai < na || !di < nd do
    let take_ancestor =
      !ai < na
      && (!di >= nd || key ancestors.(!ai) <= key descendants.(!di))
    in
    if take_ancestor then begin
      let a = ancestors.(!ai) in
      incr ai;
      pop_before (a.doc, a.start);
      stack := a :: !stack
    end
    else begin
      let d = descendants.(!di) in
      incr di;
      pop_before (d.doc, d.start);
      List.iter
        (fun a ->
          let ok =
            a.doc = d.doc && a.start < d.start && d.end_ <= a.end_
            && (axis = `Ancestor_descendant || a.level = d.level - 1)
          in
          if ok then begin
            emit a d;
            incr emitted
          end)
        !stack
    end
  done;
  !emitted

(* Keep only items not nested inside a previously kept item; inputs
   sorted by (doc, start), laminar. An input with no nesting — every
   tag-index array of a tag that never contains itself — comes back
   as is, uncopied. *)
let outermost items =
  let nested = ref false and i = ref 1 in
  while (not !nested) && !i < Array.length items do
    let prev = items.(!i - 1) and cur = items.(!i) in
    nested := prev.doc = cur.doc && cur.start < prev.end_;
    incr i
  done;
  if not !nested then items
  else begin
    let acc = ref [] in
    Array.iter
      (fun (i : item) ->
        match !acc with
        | (top : item) :: _ when top.doc = i.doc && i.start < top.end_ -> ()
        | _ -> acc := i :: !acc)
      items;
    Array.of_list (List.rev !acc)
  end

(* Index of the last item at or before [(doc, start)] in document
   order, or -1. *)
let predecessor items ~doc ~start =
  let lo = ref 0 and hi = ref (Array.length items - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let m = items.(mid) in
    if m.doc < doc || (m.doc = doc && m.start <= start) then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

(* In a sorted, pairwise disjoint array the only interval that can
   hold a key is its predecessor. *)
let inside within ~doc ~start =
  let i = predecessor within ~doc ~start in
  i >= 0
  &&
  let r = within.(i) in
  r.doc = doc && start < r.end_

let mem items ~doc ~start =
  let i = predecessor items ~doc ~start in
  i >= 0
  &&
  let r = items.(i) in
  r.doc = doc && r.start = start

(* Posting-side structural join: drive a term cursor through a set of
   disjoint subtrees. Element interval keys and word positions share
   one key space, so the occurrences owned by the subtree rooted at
   [r] are exactly those with [r.start < pos < r.end_] in [r.doc] —
   and with skips enabled, the gap between one subtree's end and the
   next subtree's start is crossed by a seek over the skip table
   instead of decoding every posting in between. *)
let occurrences_within ?(trace = Core.Trace.disabled) ?(use_skips = true)
    cursor ~within ~emit () =
  Core.Trace.span_count ~input:(Array.length within) trace "OccurrencesWithin"
  @@ fun () ->
  let emitted = ref 0 in
  let head = ref (Ir.Postings.next cursor) in
  Array.iter
    (fun (r : item) ->
      let before (h : Ir.Postings.occ) =
        h.doc < r.doc || (h.doc = r.doc && h.pos < r.start)
      in
      (match !head with
      | Some h when before h ->
        if use_skips then
          head := Ir.Postings.seek_pos cursor ~doc:r.doc ~pos:r.start
        else begin
          let rec advance () =
            match !head with
            | Some h when before h ->
              head := Ir.Postings.next cursor;
              advance ()
            | Some _ | None -> ()
          in
          advance ()
        end
      | Some _ | None -> ());
      let rec collect () =
        match !head with
        | Some (h : Ir.Postings.occ) when h.doc = r.doc && h.pos < r.end_ ->
          emit r h;
          incr emitted;
          head := Ir.Postings.next cursor;
          collect ()
        | Some _ | None -> ()
      in
      collect ())
    within;
  !emitted

let pairs ?axis ~ancestors ~descendants () =
  let acc = ref [] in
  let _ =
    join ?axis ~ancestors ~descendants ~emit:(fun a d -> acc := (a, d) :: !acc) ()
  in
  List.rev !acc

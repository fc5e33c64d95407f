type item = Store.Tag_index.item

let item_key (i : item) = (i.doc, i.start)

(* Owners of phrase occurrences, as items. *)
let phrase_owner_items ctx phrase =
  List.filter_map
    (fun (n : Scored_node.t) ->
      Some
        {
          Store.Tag_index.doc = n.doc;
          start = n.start;
          end_ = n.end_;
          level = n.level;
        })
    (Phrase_finder.to_list ctx ~phrase)

(* Elements whose direct text equals [s]: look up the first term of
   [s] in the index, then verify each owner against the stored text
   (a data-page access, like any value predicate). *)
let content_eq_items ctx s =
  match Ir.Tokenizer.terms s with
  | [] -> []
  | first :: _ ->
    let seen = Hashtbl.create 64 in
    let hits = ref [] in
    (match Ir.Inverted_index.lookup ctx.Ctx.index first with
    | None -> ()
    | Some postings ->
      Ir.Postings.iter
        (fun (occ : Ir.Postings.occ) ->
          let key = (occ.doc, occ.node) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            match
              Store.Element_store.get_text ctx.Ctx.elements ~doc:occ.doc
                ~start:occ.node
            with
            | Some text when String.trim text = s -> begin
              match
                Ctx.node_entry ctx ~nav:Ctx.Parent_index ~doc:occ.doc
                  ~start:occ.node
              with
              | Some e ->
                hits :=
                  {
                    Store.Tag_index.doc = occ.doc;
                    start = occ.node;
                    end_ = e.Store.Parent_index.end_;
                    level = e.level;
                  }
                  :: !hits
              | None -> ()
            end
            | Some _ | None -> ()
          end)
        postings);
    List.sort
      (fun (a : item) b -> compare (item_key a) (item_key b))
      !hits

(* document-ordered intersection of two item lists *)
let intersect a b =
  let rec go a b acc =
    match a, b with
    | [], _ | _, [] -> List.rev acc
    | (x : item) :: a', (y : item) :: b' ->
      let c = compare (item_key x) (item_key y) in
      if c = 0 then go a' b' (x :: acc)
      else if c < 0 then go a' b acc
      else go a b' acc
  in
  go a b []

(* ancestors (or ancestor-or-self) of [descendants] among [candidates] *)
let semi_join_ancestors ?(or_self = false) ~axis candidates descendants =
  let anc = Array.of_list candidates in
  let desc = Array.of_list descendants in
  let matched = Hashtbl.create 64 in
  let _ =
    Structural_join.join ~axis ~ancestors:anc ~descendants:desc
      ~emit:(fun a _ -> Hashtbl.replace matched (a.doc, a.start) ())
      ()
  in
  if or_self then
    List.iter
      (fun (d : Structural_join.item) ->
        Hashtbl.replace matched (d.doc, d.start) ())
      (Array.to_list desc);
  List.filter (fun c -> Hashtbl.mem matched (item_key c)) candidates

(* descendants (or self) of [ancestors] among [candidates]: one merge
   pass over both document-ordered lists. The stack holds the chain of
   open ancestors containing the current candidate, innermost first,
   so the deepest strict ancestor is the top — or the entry below it
   when the candidate is itself an ancestor. *)
let semi_join_descendants ?(or_self = false) ~axis ancestors candidates =
  let anc : item array = Array.of_list ancestors in
  let na = Array.length anc in
  let ai = ref 0 and stack = ref [] in
  let rec pop_closed (x : item) =
    match !stack with
    | (top : item) :: rest
      when top.doc < x.doc || (top.doc = x.doc && top.end_ < x.start) ->
      stack := rest;
      pop_closed x
    | _ :: _ | [] -> ()
  in
  let parent_ok (p : item) (c : item) =
    p.doc = c.doc && (axis = `Ancestor_descendant || p.level = c.level - 1)
  in
  List.filter
    (fun (c : item) ->
      while
        !ai < na
        && (anc.(!ai).doc < c.doc
           || (anc.(!ai).doc = c.doc && anc.(!ai).start <= c.start))
      do
        pop_closed anc.(!ai);
        stack := anc.(!ai) :: !stack;
        incr ai
      done;
      pop_closed c;
      match !stack with
      | top :: rest when top.doc = c.doc && top.start = c.start -> (
        or_self || match rest with p :: _ -> parent_ok p c | [] -> false)
      | top :: _ -> parent_ok top c
      | [] -> false)
    candidates

let sj_axis = function
  | Core.Pattern.Child -> `Parent_child
  | Core.Pattern.Descendant | Core.Pattern.Self_or_descendant ->
    `Ancestor_descendant

let or_self = function
  | Core.Pattern.Self_or_descendant -> true
  | Core.Pattern.Child | Core.Pattern.Descendant -> false

(* candidates satisfying the local predicate of a pattern variable *)
let rec pred_candidates ctx (pred : Core.Pattern.pred) : item list =
  match pred with
  | Core.Pattern.True -> Array.to_list (Store.Tag_index.all ctx.Ctx.tags)
  | Core.Pattern.Tag tag -> begin
    match Store.Catalog.tag_id ctx.Ctx.catalog tag with
    | Some id -> Array.to_list (Store.Tag_index.nodes ctx.Ctx.tags ~tag:id)
    | None -> []
  end
  | Core.Pattern.Content_eq s -> content_eq_items ctx s
  | Core.Pattern.Content_has phrase ->
    (* nodes whose subtree contains the phrase: owners of phrase
       occurrences, plus all their ancestors — computed as a
       semi-join of all elements against the owners *)
    let owners = phrase_owner_items ctx (Ir.Phrase.parse phrase) in
    let everything = Array.to_list (Store.Tag_index.all ctx.Ctx.tags) in
    semi_join_ancestors ~or_self:true ~axis:`Ancestor_descendant everything
      owners
  | Core.Pattern.And (a, b) ->
    intersect (pred_candidates ctx a) (pred_candidates ctx b)
  | Core.Pattern.Attr _ | Core.Pattern.Or _ | Core.Pattern.Not _ ->
    invalid_arg
      "Pattern_exec: only True/Tag/Content_eq/Content_has/And predicates are \
       index-evaluable"

let candidates = pred_candidates

let matches ctx (pat : Core.Pattern.t) ~var =
  (* bottom-up: restrict each variable's candidates by its children's
     satisfiability *)
  let bottom : (int, item list) Hashtbl.t = Hashtbl.create 8 in
  let rec bottom_up (p : Core.Pattern.pnode) : item list =
    let own = pred_candidates ctx p.pred in
    let own =
      List.fold_left
        (fun acc (c : Core.Pattern.pnode) ->
          let c_items = bottom_up c in
          semi_join_ancestors ~or_self:(or_self c.axis) ~axis:(sj_axis c.axis)
            acc c_items)
        own p.children
    in
    Hashtbl.replace bottom p.var own;
    own
  in
  let root_items = bottom_up pat.root in
  (* top-down: keep placements reachable from satisfied ancestors *)
  let result = ref [] in
  let rec top_down (p : Core.Pattern.pnode) allowed =
    if p.var = var then result := allowed;
    List.iter
      (fun (c : Core.Pattern.pnode) ->
        let c_bottom = Hashtbl.find bottom c.var in
        let c_allowed =
          semi_join_descendants ~or_self:(or_self c.axis)
            ~axis:(sj_axis c.axis) allowed c_bottom
        in
        top_down c c_allowed)
      p.children
  in
  top_down pat.root root_items;
  !result

type access =
  | Term_join of Term_join.variant
  | Gen_meet of { use_skips : bool }
  | Comp1
  | Comp2

(* The operator span name the method records — what EXPLAIN matches
   planner estimates against. *)
let access_operator = function
  | Term_join _ -> "TermJoin"
  | Gen_meet _ -> "GenMeet"
  | Comp1 -> "Comp1"
  | Comp2 -> "Comp2"

let access_to_string = function
  | Term_join Term_join.Plain -> "term-join"
  | Term_join Term_join.Enhanced -> "term-join-enhanced"
  | Gen_meet { use_skips = true } -> "gen-meet"
  | Gen_meet { use_skips = false } -> "gen-meet-noskip"
  | Comp1 -> "comp1"
  | Comp2 -> "comp2"

(* The elements [var] binds to, as a document-ordered array. A
   one-node tag pattern reads the tag index's own array — no copy, no
   semi-join. *)
let anchors ctx (pat : Core.Pattern.t) ~var =
  match pat.root with
  | { var = v; pred = Core.Pattern.Tag tag; children = []; _ } when v = var
    -> begin
    match Store.Catalog.tag_id ctx.Ctx.catalog tag with
    | Some id -> Store.Tag_index.nodes ctx.Ctx.tags ~tag:id
    | None -> [||]
  end
  | _ -> Array.of_list (matches ctx pat ~var)

let score ?trace ?mode ?weights ?within ?doc_range access ctx ~terms ~emit () =
  match access, doc_range with
  | Term_join variant, _ ->
    Term_join.run ?trace ~variant ?mode ?weights ?doc_range ctx ~terms ~emit ()
  | Gen_meet { use_skips }, _ ->
    Gen_meet.run ?trace ?mode ?weights ?within ~use_skips ?doc_range ctx ~terms
      ~emit ()
  | Comp1, None -> Composite.comp1 ?trace ?mode ?weights ctx ~terms ~emit ()
  | Comp2, None -> Composite.comp2 ?trace ?mode ?weights ctx ~terms ~emit ()
  | (Comp1 | Comp2), Some _ ->
    invalid_arg "Pattern_exec.score: the composite baselines take no doc_range"

let run ?(trace = Core.Trace.disabled) ?mode ?weights
    ?(access = Term_join Term_join.Plain) ctx (pat : Core.Pattern.t)
    ~struct_var ~terms ~emit () =
  let matched = ref [||] in
  let (_ : int) =
    Core.Trace.span_count trace "PatternMatch" (fun () ->
        matched := anchors ctx pat ~var:struct_var;
        Array.length !matched)
  in
  (* a scored node qualifies when it is an anchor or lies inside one,
     i.e. inside one of the disjoint outermost anchor subtrees *)
  let within = Structural_join.outermost !matched in
  let kept = ref 0 in
  let keep (n : Scored_node.t) =
    if Structural_join.inside within ~doc:n.doc ~start:n.start then begin
      incr kept;
      emit n
    end
  in
  (* [within] scopes GenMeet to the anchor subtrees: nothing outside
     them can qualify, so nothing outside them needs grouping, and the
     posting cursors skip across the gaps *)
  let (_ : int) =
    score ~trace ?mode ?weights ~within access ctx ~terms ~emit:keep ()
  in
  !kept

let scored_matches ?trace ?mode ?weights ?access ctx pat ~struct_var ~terms =
  let acc = ref [] in
  let (_ : int) =
    run ?trace ?mode ?weights ?access ctx pat ~struct_var ~terms
      ~emit:(fun n -> acc := n :: !acc)
      ()
  in
  List.sort Scored_node.compare_pos !acc

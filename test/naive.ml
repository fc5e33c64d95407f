open Access

let decoded_postings ctx term =
  match Ir.Inverted_index.lookup ctx.Ctx.index term with
  | None -> []
  | Some p -> Ir.Postings.to_list p

(* All elements of the database, by scanning the table. *)
let all_elements ctx =
  let acc = ref [] in
  Store.Element_store.scan ctx.Ctx.elements (fun r -> acc := r :: !acc);
  List.rev !acc

let term_counts ctx ~terms =
  let k = List.length terms in
  let per_term = List.map (decoded_postings ctx) terms in
  let elements = all_elements ctx in
  List.filter_map
    (fun (r : Store.Element_rec.t) ->
      let counts = Array.make k 0 in
      List.iteri
        (fun i occs ->
          List.iter
            (fun (occ : Ir.Postings.occ) ->
              if occ.doc = r.doc && occ.pos > r.start && occ.pos < r.end_ then
                counts.(i) <- counts.(i) + 1)
            occs)
        per_term;
      if Array.exists (fun c -> c > 0) counts then
        Some ((r.doc, r.start), counts)
      else None)
    elements

let scored ?(mode = Counter_scoring.Simple) ?weights ctx ~terms =
  let k = List.length terms in
  let weights =
    match weights with Some w -> w | None -> Counter_scoring.default_weights k
  in
  let per_term = List.map (decoded_postings ctx) terms in
  let elements = all_elements ctx in
  let with_counts =
    List.filter_map
      (fun (r : Store.Element_rec.t) ->
        let counts = Array.make k 0 in
        let occs = ref [] in
        List.iteri
          (fun i term_occs ->
            List.iter
              (fun (occ : Ir.Postings.occ) ->
                if occ.doc = r.doc && occ.pos > r.start && occ.pos < r.end_
                then begin
                  counts.(i) <- counts.(i) + 1;
                  occs := { Counter_scoring.term = i; pos = occ.pos } :: !occs
                end)
              term_occs)
          per_term;
        if Array.exists (fun c -> c > 0) counts then Some (r, counts, !occs)
        else None)
      elements
  in
  let result_keys =
    List.map (fun ((r : Store.Element_rec.t), _, _) -> (r.doc, r.start)) with_counts
  in
  List.map
    (fun ((r : Store.Element_rec.t), counts, occs) ->
      let score =
        match mode with
        | Counter_scoring.Simple -> Counter_scoring.simple ~weights ~counts
        | Counter_scoring.Complex ->
          let occs =
            List.sort
              (fun (a : Counter_scoring.occ) b -> compare a.pos b.pos)
              occs
          in
          (* non-zero children: direct children of r that are result
             nodes *)
          let nonzero_children =
            List.length
              (List.filter
                 (fun (c : Store.Element_rec.t) ->
                   c.doc = r.doc && c.parent = r.start
                   && List.mem (c.doc, c.start) result_keys)
                 elements)
          in
          Counter_scoring.complex ~weights ~counts ~occs ~nonzero_children
            ~child_count:r.child_count
      in
      {
        Scored_node.doc = r.doc;
        start = r.start;
        end_ = r.end_;
        level = r.level;
        tag = r.tag;
        score;
      })
    with_counts
  |> List.sort Scored_node.compare_pos

let phrase_counts ctx ~phrase =
  match phrase with
  | [] -> []
  | first :: rest ->
    let k = 1 + List.length rest in
    let sets =
      List.map
        (fun term ->
          let tbl = Hashtbl.create 256 in
          List.iter
            (fun (occ : Ir.Postings.occ) ->
              Hashtbl.replace tbl (occ.doc, occ.pos) occ.node)
            (decoded_postings ctx term);
          tbl)
        (first :: rest)
    in
    let lead = List.hd sets and others = List.tl sets in
    let counts = Hashtbl.create 256 in
    Hashtbl.iter
      (fun (doc, pos) node ->
        let ok = ref true in
        List.iteri
          (fun i tbl ->
            if not (Hashtbl.mem tbl (doc, pos + i + 1)) then ok := false)
          others;
        ignore k;
        if !ok then begin
          let key = (doc, node) in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
        end)
      lead;
    Hashtbl.fold (fun key c acc -> (key, c) :: acc) counts []
    |> List.sort compare

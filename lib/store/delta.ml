module Ints = Set.Make (Int)

type entry = { name : string; xml : string; tree : Xmlkit.Tree.element }

type t = {
  base : Db.t;
  entries : entry list;  (* arrival order *)
  dead : Ints.t;  (* tombstoned base document ids *)
  index : Db.t option Atomic.t;  (* index over [entries], built on first use *)
}

type mutation_error =
  | Duplicate_document of { name : string }
  | Unknown_document of { name : string }
  | Parse_failed of { name : string; reason : string }

let pp_mutation_error ppf = function
  | Duplicate_document { name } ->
    Format.fprintf ppf "document %S already exists" name
  | Unknown_document { name } -> Format.fprintf ppf "no document named %S" name
  | Parse_failed { name; reason } ->
    Format.fprintf ppf "document %S does not parse: %s" name reason

let mutation_error_to_string e = Format.asprintf "%a" pp_mutation_error e

let create ~base =
  { base; entries = []; dead = Ints.empty; index = Atomic.make None }

let base t = t.base

let base_doc t name =
  match Catalog.document_id (Db.catalog t.base) name with
  | Some d when not (Ints.mem d t.dead) -> Some d
  | Some _ | None -> None

let in_delta t name = List.exists (fun e -> e.name = name) t.entries
let mem t name = in_delta t name || base_doc t name <> None
let tombstone_count t = Ints.cardinal t.dead

let tombstones t =
  let marks = Array.make (Catalog.document_count (Db.catalog t.base)) false in
  Ints.iter (fun d -> marks.(d) <- true) t.dead;
  marks

let doc_count t = List.length t.entries
let is_empty t = t.entries = [] && Ints.is_empty t.dead
let documents t = List.map (fun e -> (e.name, e.xml)) t.entries

let parse ~name xml =
  match Xmlkit.Parser.parse_string xml with
  | Ok tree -> Ok { name; xml; tree }
  | Error e ->
    Error
      (Parse_failed
         { name; reason = Format.asprintf "%a" Xmlkit.Parser.pp_error e })

(* A value with other entries gets an index cell of its own; a
   tombstone-only change keeps the cell, since the index covers the
   entries alone. *)
let with_entries t entries = { t with entries; index = Atomic.make None }

let insert t ~name ~xml =
  if mem t name then Error (Duplicate_document { name })
  else
    parse ~name xml |> Result.map (fun e -> with_entries t (t.entries @ [ e ]))

let delete t ~name =
  if in_delta t name then
    (* an updated base doc stays tombstoned; only the delta copy goes *)
    Ok (with_entries t (List.filter (fun e -> e.name <> name) t.entries))
  else
    match base_doc t name with
    | Some d -> Ok { t with dead = Ints.add d t.dead }
    | None -> Error (Unknown_document { name })

let update t ~name ~xml =
  if in_delta t name then
    parse ~name xml
    |> Result.map (fun entry ->
           (* replace in place: an update keeps the document's position *)
           with_entries t
             (List.map (fun e -> if e.name = name then entry else e) t.entries))
  else
    match base_doc t name with
    | Some d ->
      parse ~name xml
      |> Result.map (fun entry ->
             { (with_entries t (t.entries @ [ entry ])) with
               dead = Ints.add d t.dead })
    | None -> Error (Unknown_document { name })

let apply t = function
  | Wal.Insert { name; xml } -> insert t ~name ~xml
  | Wal.Delete { name } -> delete t ~name
  | Wal.Update { name; xml } -> update t ~name ~xml

type replay_report = { applied : int; skipped : int }

let replay t records =
  let step (t, r) record =
    let outcome =
      match record with
      | Wal.Insert { name; xml } | Wal.Update { name; xml } ->
        (* live name → update, dead name → insert: idempotent both ways *)
        if mem t name then update t ~name ~xml else insert t ~name ~xml
      | Wal.Delete { name } -> delete t ~name
    in
    match outcome with
    | Ok t -> (t, { r with applied = r.applied + 1 })
    | Error _ -> (t, { r with skipped = r.skipped + 1 })
  in
  List.fold_left step (t, { applied = 0; skipped = 0 }) records

let db t =
  match t.entries with
  | [] -> None
  | entries -> begin
    match Atomic.get t.index with
    | Some _ as db -> db
    | None ->
      let options =
        {
          Db.default_options with
          stem = Ir.Inverted_index.stemmed (Db.index t.base);
          keep_trees = true;
        }
      in
      let db =
        Db.of_documents ~options (List.map (fun e -> (e.name, e.tree)) entries)
      in
      (* racing first uses build from the same entries: either is right *)
      Atomic.set t.index (Some db);
      Some db
  end

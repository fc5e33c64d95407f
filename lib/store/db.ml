let src = Logs.Src.create "tix.store" ~doc:"TIX storage engine"

module Log = (val Logs.src_log src)

type load_options = {
  stem : bool;
  page_size : int;
  pool_pages : int;
  keep_trees : bool;
}

let default_options =
  {
    stem = false;
    page_size = Pager.default_page_size;
    pool_pages = 1024;
    keep_trees = true;
  }

type error =
  | Not_a_database of { path : string }
  | Unsupported_version of { path : string; found : string }
  | Truncated of { path : string; detail : string }
  | Checksum_mismatch of {
      path : string;
      section : string;
      expected : int;
      actual : int;
    }
  | Corrupt of { path : string; detail : string }
  | Io_error of { path : string; detail : string }

type verification = [ `Verified | `Pending | `Failed of error ]

(* Checksum verification state of an opened image. In-memory builds
   and eager opens are born [`Verified]; a lazy v4 open frames the
   sections structurally, starts serving, and lets a background
   thread run the CRC pass, flipping the status when it lands. *)
type verifier = {
  v_status : verification Atomic.t;
  mutable v_thread : Thread.t option;
}

let verified () = { v_status = Atomic.make `Verified; v_thread = None }

type t = {
  catalog : Catalog.t;
  elements : Element_store.t;
  parents : Parent_index.t;
  tags : Tag_index.t;
  index : Ir.Inverted_index.t;
  numberings : Xmlkit.Numbering.t option array;
      (* each document's tree, if kept; empty when none was loaded *)
  verif : verifier;
  coll_stats : Ir.Stats.t option Atomic.t;
      (* planner statistics: decoded from the image's stats section,
         or computed lazily by one element scan on first use *)
}

type stats = {
  documents : int;
  elements : int;
  distinct_terms : int;
  occurrences : int;
  pages : int;
  index_bytes : int;
}

(* Number of descendant elements of each element, from the preorder
   info array: a following element belongs to the subtree while its
   interval is contained. *)
let descendant_counts (infos : Xmlkit.Numbering.info array) =
  let n = Array.length infos in
  let counts = Array.make n 0 in
  (* stack of indices of currently open elements *)
  let stack = ref [] in
  for i = 0 to n - 1 do
    let rec close () =
      match !stack with
      | top :: rest when infos.(top).Xmlkit.Numbering.end_ < infos.(i).start ->
        stack := rest;
        close ()
      | _ -> ()
    in
    close ();
    List.iter (fun a -> counts.(a) <- counts.(a) + 1) !stack;
    stack := i :: !stack
  done;
  counts

type builders = {
  b_catalog : Catalog.t;
  b_store : Element_store.builder;
  b_parents : Parent_index.builder;
  b_tags : Tag_index.builder;
  b_index : Ir.Inverted_index.builder;
  mutable b_numberings : Xmlkit.Numbering.t list;  (* reverse order *)
  b_options : load_options;
}

let make_builders options =
  {
    b_catalog = Catalog.create ();
    b_store =
      Element_store.builder ~page_size:options.page_size
        ~pool_pages:options.pool_pages ();
    b_parents = Parent_index.builder ();
    b_tags = Tag_index.builder ();
    b_index = Ir.Inverted_index.builder ~stem:options.stem ();
    b_numberings = [];
    b_options = options;
  }

let ingest b (name, root) =
  let options = b.b_options in
  let catalog = b.b_catalog in
  let store_builder = b.b_store in
  let parent_builder = b.b_parents in
  let tag_builder = b.b_tags in
  let index_builder = b.b_index in
    let doc = Catalog.add_document catalog name in
    let text ~owner:_ ~owner_start ~start_key s =
      let next =
        Ir.Inverted_index.index_text index_builder ~doc ~node:owner_start
          ~start_pos:start_key s
      in
      next - start_key
    in
    let numbering = Xmlkit.Numbering.number ~text root in
    let infos = numbering.Xmlkit.Numbering.infos in
    let desc = descendant_counts infos in
    Array.iteri
      (fun i (info : Xmlkit.Numbering.info) ->
        let parent_start =
          if info.parent < 0 then -1 else infos.(info.parent).start
        in
        let tag = Catalog.intern_tag catalog info.tag in
        let word_count = info.end_ - info.start - 1 - (2 * desc.(i)) in
        let text_content =
          String.concat " "
            (Xmlkit.Tree.child_texts numbering.Xmlkit.Numbering.elements.(i))
        in
        Element_store.add store_builder
          {
            Element_rec.doc;
            start = info.start;
            end_ = info.end_;
            level = info.level;
            parent = parent_start;
            child_count = info.child_count;
            tag;
            word_count;
            text = text_content;
          };
        Parent_index.add parent_builder ~doc ~start:info.start
          {
            Parent_index.parent = parent_start;
            child_count = info.child_count;
            level = info.level;
            end_ = info.end_;
            tag;
          };
        Tag_index.add tag_builder ~tag
          { Tag_index.doc; start = info.start; end_ = info.end_; level = info.level })
      infos;
  if options.keep_trees then b.b_numberings <- numbering :: b.b_numberings

let finish b =
  {
    catalog = b.b_catalog;
    elements = Element_store.freeze b.b_store;
    parents = Parent_index.freeze b.b_parents;
    tags = Tag_index.freeze b.b_tags;
    index = Ir.Inverted_index.freeze b.b_index;
    numberings = Array.of_list (List.rev_map Option.some b.b_numberings);
    verif = verified ();
    coll_stats = Atomic.make None;
  }

let load ?(options = default_options) docs =
  let b = make_builders options in
  let started = Unix.gettimeofday () in
  Seq.iter (ingest b) docs;
  Log.info (fun m ->
      m "loaded %d documents in %.1f ms"
        (Catalog.document_count b.b_catalog)
        ((Unix.gettimeofday () -. started) *. 1000.));
  finish b

let of_documents ?options docs = load ?options (List.to_seq docs)

type load_failure = { document : string; reason : string }

type load_report = { loaded : int; failed : load_failure list }

let load_isolated ?(options = default_options) docs =
  let b = make_builders options in
  let failed = ref [] and loaded = ref 0 in
  let skip name reason =
    Log.info (fun m -> m "skipping %s: %s" name reason);
    failed := { document = name; reason } :: !failed
  in
  Seq.iter
    (fun (name, parsed) ->
      match parsed with
      | Error reason -> skip name reason
      | Ok root -> begin
        (* Dry-run the numbering pass before any builder sees the
           document: whatever would make the real ingest blow up —
           a pathological tree, a stack overflow — fails here, where
           skipping is still free. *)
        match ignore (Xmlkit.Numbering.number root) with
        | exception Stack_overflow -> skip name "document tree too deep"
        | exception e -> skip name (Printexc.to_string e)
        | () ->
          ingest b (name, root);
          incr loaded
      end)
    docs;
  (finish b, { loaded = !loaded; failed = List.rev !failed })

let pp_load_report ppf r =
  Format.fprintf ppf "loaded %d document%s" r.loaded
    (if r.loaded = 1 then "" else "s");
  match r.failed with
  | [] -> ()
  | failures ->
    Format.fprintf ppf ", skipped %d:" (List.length failures);
    List.iter
      (fun f -> Format.fprintf ppf "@,  %s: %s" f.document f.reason)
      failures

let catalog (t : t) = t.catalog
let elements (t : t) = t.elements
let parents (t : t) = t.parents
let tags (t : t) = t.tags
let index (t : t) = t.index
let document_id t name = Catalog.document_id t.catalog name

let stats t =
  let istats = Ir.Inverted_index.stats t.index in
  {
    documents = Catalog.document_count t.catalog;
    elements = Element_store.element_count t.elements;
    distinct_terms = istats.Ir.Inverted_index.distinct_terms;
    occurrences = istats.total_occurrences;
    pages = Pager.page_count (Element_store.pager t.elements);
    index_bytes = istats.bytes;
  }

let retains_trees t = Array.exists Option.is_some t.numberings

let numbering t ~doc =
  if doc >= 0 && doc < Array.length t.numberings then t.numberings.(doc)
  else None

let subtree t ~doc ~start =
  match numbering t ~doc with
  | None -> None
  | Some num ->
    (match Xmlkit.Numbering.find_by_start num start with
    | Some info -> Some num.Xmlkit.Numbering.elements.(info.index)
    | None -> None)

let tag_of t ~doc ~start =
  match Parent_index.find t.parents ~doc ~start with
  | Some e -> Some (Catalog.tag_name t.catalog e.Parent_index.tag)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Compaction: merge a delta segment into a fresh immutable database.

   The merged document id space is dense: live base documents keep
   their relative order and are renumbered 0.., delta documents follow
   in arrival order. Both remaps are monotone, so re-adding element
   records and posting occurrences in scan order preserves the
   (doc, start) / (doc, pos) orders the builders require, and the
   result is indistinguishable from loading the surviving documents
   from scratch. *)

let compact ~base ~delta ~tombstones =
  let n_base = Catalog.document_count base.catalog in
  let remap = Array.make (max n_base 1) (-1) in
  let n_live = ref 0 in
  for d = 0 to n_base - 1 do
    let dead = d < Array.length tombstones && tombstones.(d) in
    if not dead then begin
      remap.(d) <- !n_live;
      incr n_live
    end
  done;
  let n_live = !n_live in
  let catalog = Catalog.create () in
  for d = 0 to n_base - 1 do
    if remap.(d) >= 0 then
      ignore (Catalog.add_document catalog (Catalog.document_name base.catalog d))
  done;
  (match delta with
  | None -> ()
  | Some dd ->
    for d = 0 to Catalog.document_count dd.catalog - 1 do
      ignore (Catalog.add_document catalog (Catalog.document_name dd.catalog d))
    done);
  let store_b =
    Element_store.builder
      ~page_size:(Pager.page_size (Element_store.pager base.elements))
      ~pool_pages:default_options.pool_pages ()
  in
  let parent_b = Parent_index.builder () in
  let tag_b = Tag_index.builder () in
  let add_element src_catalog doc_of (r : Element_rec.t) =
    match doc_of r.doc with
    | -1 -> ()
    | doc ->
      let tag = Catalog.intern_tag catalog (Catalog.tag_name src_catalog r.tag) in
      Element_store.add store_b { r with doc; tag };
      Parent_index.add parent_b ~doc ~start:r.start
        {
          Parent_index.parent = r.parent;
          child_count = r.child_count;
          level = r.level;
          end_ = r.end_;
          tag;
        };
      Tag_index.add tag_b ~tag
        { Tag_index.doc; start = r.start; end_ = r.end_; level = r.level }
  in
  Element_store.scan base.elements ~with_text:true
    (add_element base.catalog (fun d -> remap.(d)));
  (match delta with
  | None -> ()
  | Some dd ->
    Element_store.scan dd.elements ~with_text:true
      (add_element dd.catalog (fun d -> n_live + d)));
  let index_b =
    Ir.Inverted_index.builder ~stem:(Ir.Inverted_index.stemmed base.index) ()
  in
  (* terms were normalized at original ingest; re-add them raw *)
  Ir.Inverted_index.iter_terms base.index (fun term postings ->
      Ir.Postings.iter
        (fun (o : Ir.Postings.occ) ->
          if remap.(o.doc) >= 0 then
            Ir.Inverted_index.add_normalized_occurrence index_b
              ~doc:remap.(o.doc) ~node:o.node ~term ~pos:o.pos)
        postings);
  (match delta with
  | None -> ()
  | Some dd ->
    Ir.Inverted_index.iter_terms dd.index (fun term postings ->
        Ir.Postings.iter
          (fun (o : Ir.Postings.occ) ->
            Ir.Inverted_index.add_normalized_occurrence index_b
              ~doc:(n_live + o.doc) ~node:o.node ~term ~pos:o.pos)
          postings));
  (* each document keeps its tree iff its source kept it *)
  let numberings = Array.make (Catalog.document_count catalog) None in
  for d = 0 to n_base - 1 do
    if remap.(d) >= 0 then numberings.(remap.(d)) <- numbering base ~doc:d
  done;
  Option.iter
    (fun dd ->
      for d = 0 to Catalog.document_count dd.catalog - 1 do
        numberings.(n_live + d) <- numbering dd ~doc:d
      done)
    delta;
  {
    catalog;
    elements = Element_store.freeze store_b;
    parents = Parent_index.freeze parent_b;
    tags = Tag_index.freeze tag_b;
    index = Ir.Inverted_index.freeze index_b;
    numberings;
    verif = verified ();
    coll_stats = Atomic.make None;
  }

(* ------------------------------------------------------------------ *)
(* Planner statistics: corpus aggregates + per-tag counts + path
   synopsis ({!Ir.Stats}). Saved images carry them in their sixth
   section; an in-memory build computes them on first use by one
   element-store scan in preorder and caches the result. *)

let compute_collection_stats t =
  let istats = Ir.Inverted_index.stats t.index in
  let b =
    Ir.Stats.builder
      ~documents:(Catalog.document_count t.catalog)
      ~occurrences:istats.Ir.Inverted_index.total_occurrences
      ~distinct_terms:istats.Ir.Inverted_index.distinct_terms
      ~tag_count:(Catalog.tag_count t.catalog)
      ()
  in
  Element_store.scan t.elements (fun (r : Element_rec.t) ->
      Ir.Stats.add_element b ~tag:r.tag ~level:r.level);
  Ir.Stats.freeze b

let collection_stats t =
  match Atomic.get t.coll_stats with
  | Some s -> s
  | None ->
    let s = compute_collection_stats t in
    (* racing domains compute identical stats; first publisher wins *)
    ignore (Atomic.compare_and_set t.coll_stats None (Some s));
    Option.value ~default:s (Atomic.get t.coll_stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "documents=%d elements=%d terms=%d occurrences=%d pages=%d index_bytes=%d"
    s.documents s.elements s.distinct_terms s.occurrences s.pages s.index_bytes

(* ------------------------------------------------------------------ *)
(* Persistence

   Image layout (version 4: frame-of-reference bit-packed posting
   blocks with skip tables, serialized parent/tag index sections,
   mmap'd zero-copy open):

     magic   "TIXDB004"                       8 bytes
     count   varint                           6
     section varint id, varint len,
             4-byte big-endian CRC-32,        catalog = 1,
             payload                          elements = 2, index = 3,
                                              parents = 4, tags = 5,
                                              stats = 6

   Sections appear in id order and the file ends exactly after the
   last payload. Every payload byte is covered by its section's
   CRC-32; every framing byte is covered by structural checks, so a
   single flipped byte anywhere is detected before any decoded value
   is trusted.

   The image is opened by mapping the file (Unix.map_file) and
   verifying every section CRC directly over the map — no copy, no
   allocation proportional to the image. Posting lists and element
   pages then decode lazily, in place: the element pager is born
   pinned ([Pager.of_mapped]), so snapshot publication is O(1) and
   the mapped pages are shared read-only across every domain. This is
   the only layout the reader accepts; an image in any other layout
   is rebuilt from its XML. *)

let magic = "TIXDB004"
let magic_prefix = "TIXDB"

let pp_error ppf = function
  | Not_a_database { path } ->
    Format.fprintf ppf "%s: not a TIX database image" path
  | Unsupported_version { path; found } ->
    Format.fprintf ppf "%s: unsupported image version %S (this build reads %S)"
      path found magic
  | Truncated { path; detail } ->
    Format.fprintf ppf "%s: truncated image: %s" path detail
  | Checksum_mismatch { path; section; expected; actual } ->
    Format.fprintf ppf
      "%s: %s section checksum mismatch (stored %08x, computed %08x)" path
      section expected actual
  | Corrupt { path; detail } ->
    Format.fprintf ppf "%s: corrupt image: %s" path detail
  | Io_error { path; detail } -> Format.fprintf ppf "%s: %s" path detail

let error_to_string e = Format.asprintf "%a" pp_error e

let section_names = [| "catalog"; "elements"; "index"; "parents"; "tags"; "stats" |]

let add_string buf s =
  Ir.Codec.add_varint buf (String.length s);
  Buffer.add_string buf s

let read_string_buf buf off =
  let len, off = Ir.Codec.read_varint_buf buf off in
  (Ir.Codec.buf_sub_string buf off len, off + len)

let add_crc32 buf crc =
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (crc land 0xFF))

let read_crc32_buf buf off =
  let b i = Ir.Codec.buf_get buf (off + i) in
  ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3, off + 4)

let catalog_section t =
  let buf = Buffer.create 4096 in
  Ir.Codec.add_varint buf (Catalog.document_count t.catalog);
  for doc = 0 to Catalog.document_count t.catalog - 1 do
    add_string buf (Catalog.document_name t.catalog doc)
  done;
  Ir.Codec.add_varint buf (Catalog.tag_count t.catalog);
  for tag = 0 to Catalog.tag_count t.catalog - 1 do
    add_string buf (Catalog.tag_name t.catalog tag)
  done;
  buf

let section buf_size fill =
  let buf = Buffer.create buf_size in
  fill buf;
  buf

let save t path =
  let sections =
    [
      catalog_section t;
      section (1 lsl 20) (Element_store.save t.elements);
      section (1 lsl 20) (Ir.Inverted_index.save t.index);
      section (1 lsl 16) (Parent_index.save t.parents);
      section (1 lsl 16) (Tag_index.save t.tags);
      section (1 lsl 12) (Ir.Stats.save (collection_stats t));
    ]
  in
  let image = Buffer.create (1 lsl 20) in
  Buffer.add_string image magic;
  Ir.Codec.add_varint image (List.length sections);
  List.iteri
    (fun i payload ->
      let s = Buffer.contents payload in
      Ir.Codec.add_varint image (i + 1);
      Ir.Codec.add_varint image (String.length s);
      add_crc32 image (Crc32.string s);
      Buffer.add_string image s)
    sections;
  (* Atomic publication: assemble next to the target, then rename. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match Buffer.output_buffer oc image with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let decode_catalog buf ~off ~len =
  let limit = off + len in
  let catalog = Catalog.create () in
  let ndocs, off = Ir.Codec.read_varint_buf buf off in
  let off = ref off in
  for _ = 1 to ndocs do
    let name, o = read_string_buf buf !off in
    ignore (Catalog.add_document catalog name);
    off := o
  done;
  let ntags, o = Ir.Codec.read_varint_buf buf !off in
  off := o;
  for _ = 1 to ntags do
    let name, o = read_string_buf buf !off in
    ignore (Catalog.intern_tag catalog name);
    off := o
  done;
  if !off <> limit then failwith "catalog section length mismatch";
  catalog

(* Frame the section table over [buf]: purely structural checks on
   the header — section count, ids, lengths summing exactly to the
   file size. O(1) in the image size; trusts no payload byte. *)
let frame ~path buf =
  let expected = Array.length section_names in
  let total = Ir.Codec.buf_length buf in
  match
    let nsections, off = Ir.Codec.read_varint_buf buf (String.length magic) in
    if nsections <> expected then
      Error
        (Corrupt
           {
             path;
             detail =
               Printf.sprintf "expected %d sections, header says %d" expected
                 nsections;
           })
    else begin
      let rec frame i off acc =
        if i >= nsections then
          if off <> total then
            Error
              (Corrupt
                 {
                   path;
                   detail =
                     Printf.sprintf "%d trailing bytes after last section"
                       (total - off);
                 })
          else Ok (List.rev acc)
        else begin
          let id, off = Ir.Codec.read_varint_buf buf off in
          let len, off = Ir.Codec.read_varint_buf buf off in
          let crc, off = read_crc32_buf buf off in
          if id <> i + 1 then
            Error
              (Corrupt
                 { path; detail = Printf.sprintf "section %d has id %d" (i + 1) id })
          else if len < 0 || off + len > total then
            Error
              (Truncated
                 {
                   path;
                   detail =
                     Printf.sprintf "%s section claims %d bytes, %d remain"
                       section_names.(i) len (total - off);
                 })
          else frame (i + 1) (off + len) ((section_names.(i), off, len, crc) :: acc)
        end
      in
      frame 0 off []
    end
  with
  | exception Invalid_argument _ ->
    Error (Truncated { path; detail = "file ends inside the header" })
  | exception Ir.Codec.Truncated detail ->
    Error (Truncated { path; detail = "header: " ^ detail })
  | (Error _ | Ok _) as r -> r

(* Verify every framed section's CRC-32. Over an mmap'd image the
   pass reads the map in place — it allocates nothing proportional to
   the image. *)
let verify_sections ~path buf sections =
  let bad =
    List.find_map
      (fun (name, off, len, expected) ->
        let actual = Crc32.buf ~off ~len buf in
        if actual <> expected then
          Some (Checksum_mismatch { path; section = name; expected; actual })
        else None)
      sections
  in
  match bad with Some e -> Error e | None -> Ok ()

let find_section sections name =
  let _, off, len, _ = List.find (fun (n, _, _, _) -> n = name) sections in
  (off, len)

(* Everything decodes straight out of the mapped buffer. The catalog,
   the parent/tag sections and the statistics are materialized
   eagerly (they are small and already in their query shape); posting
   lists keep zero-copy views; element pages stay slices of the map
   until a query first touches them. *)
let decode ~path ~verif buf sections =
  match
    let find = find_section sections in
    let cat_off, cat_len = find "catalog" in
    let catalog = decode_catalog buf ~off:cat_off ~len:cat_len in
    let el_off, el_len = find "elements" in
    let elements, el_end = Element_store.load_mapped buf el_off in
    if el_end <> el_off + el_len then
      failwith "elements section length mismatch";
    let ix_off, ix_len = find "index" in
    let index, ix_end = Ir.Inverted_index.load_buf buf ix_off in
    if ix_end <> ix_off + ix_len then failwith "index section length mismatch";
    let p_off, p_len = find "parents" in
    let parents, p_end = Parent_index.load buf p_off in
    if p_end <> p_off + p_len then failwith "parents section length mismatch";
    let t_off, t_len = find "tags" in
    let tags, t_end = Tag_index.load buf t_off in
    if t_end <> t_off + t_len then failwith "tags section length mismatch";
    let s_off, s_len = find "stats" in
    let stats, s_end = Ir.Stats.load_buf buf s_off in
    if s_end <> s_off + s_len then failwith "stats section length mismatch";
    { catalog; elements; parents; tags; index; numberings = [||]; verif;
      coll_stats = Atomic.make (Some stats) }
  with
  | db ->
    Log.info (fun m ->
        m "%s: mapped TIXDB004 image (%d bytes, %d sections, zero-copy)" path
          (Ir.Codec.buf_length buf) (List.length sections));
    Ok db
  | exception e ->
    (* checksums passed but decoding still tripped: report, never
       escape *)
    Error (Corrupt { path; detail = Printexc.to_string e })

(* The mapped image has two access phases: the checksum pass streams
   every byte (WILLNEED lets the kernel read ahead), then serving
   touches pages randomly (RANDOM turns read-around off). Both hints
   are advisory and silently absent on unsupported platforms. *)
let willneed_hint ~path map =
  if Mmap_hints.advise map Mmap_hints.Willneed then
    Log.debug (fun m -> m "%s: madvise(WILLNEED) before checksum pass" path)

let serve_hint ~path map =
  if Mmap_hints.advise map Mmap_hints.Random then
    Log.debug (fun m -> m "%s: madvise(RANDOM) for serving" path)

let open_mapped ~verify ~path =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |]))
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Io_error { path; detail = Unix.error_message e })
  | exception Sys_error detail -> Error (Io_error { path; detail })
  | map -> begin
    let buf = Ir.Codec.M map in
    willneed_hint ~path map;
    match frame ~path buf with
    | Error e -> Error e
    | Ok sections -> (
      match verify with
      | `Eager -> (
        (* verify every checksum before trusting a single payload
           byte *)
        match verify_sections ~path buf sections with
        | Error e -> Error e
        | Ok () -> (
          match decode ~path ~verif:(verified ()) buf sections with
          | Error e -> Error e
          | Ok db ->
            serve_hint ~path map;
            Ok db))
      | `Lazy -> (
        (* Start serving on the O(1) framing and run the CRC pass on a
           background thread. Reads meanwhile trust the framing only —
           a payload corruption surfaces as `Failed once the scan
           lands, exactly what a shard process wants: serving state in
           O(1), integrity verdict seconds later. *)
        let verif =
          { v_status = Atomic.make `Pending; v_thread = None }
        in
        match decode ~path ~verif buf sections with
        | Error e -> Error e
        | Ok db ->
          verif.v_thread <-
            Some
              (Thread.create
                 (fun () ->
                   (match verify_sections ~path buf sections with
                   | Ok () ->
                     Atomic.set verif.v_status `Verified;
                     Log.info (fun m ->
                         m "%s: background checksum pass clean" path)
                   | Error e ->
                     Atomic.set verif.v_status (`Failed e);
                     Log.err (fun m ->
                         m "%s: background checksum pass FAILED: %s" path
                           (error_to_string e)));
                   serve_hint ~path map)
                 ());
          Ok db))
  end

let verification t = Atomic.get t.verif.v_status

let await_verification t =
  (match t.verif.v_thread with
  | Some th ->
    Thread.join th;
    t.verif.v_thread <- None
  | None -> ());
  match Atomic.get t.verif.v_status with
  | `Verified | `Pending -> Ok ()
  | `Failed e -> Error e

let open_file ?(verify = `Eager) path =
  (* Sniff the 8-byte magic before mapping: a file that is not a TIX
     image, or is one of another version, gets its typed error
     without a map. *)
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let total = in_channel_length ic in
        (really_input_string ic (min total (String.length magic)), total))
  with
  | exception Sys_error detail -> Error (Io_error { path; detail })
  | exception End_of_file ->
    Error (Truncated { path; detail = "file shorter than its own length" })
  | (head, total) ->
    let prefix_len = String.length magic_prefix in
    if total < prefix_len || String.sub head 0 prefix_len <> magic_prefix then
      Error (Not_a_database { path })
    else if total < String.length magic then
      Error (Truncated { path; detail = "file ends inside the magic" })
    else if head = magic then open_mapped ~verify ~path
    else Error (Unsupported_version { path; found = head })

let open_file_exn ?verify path =
  match open_file ?verify path with
  | Ok db -> db
  | Error e -> failwith (error_to_string e)

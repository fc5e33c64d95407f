type page_meta = { first_doc : int; first_start : int; records : int }

type t = {
  pager : Pager.t;
  metas : page_meta array;
  elements : int;
  documents : int;
}

type builder = {
  buf : Buffer.t;
  mutable buf_records : int;
  mutable buf_first : (int * int) option;  (* (doc, start) of first record *)
  mutable pages_rev : Bytes.t list;
  mutable metas_rev : page_meta list;
  mutable count : int;
  mutable docs : int;
  mutable last_key : int * int;
  page_size : int;
  pool_pages : int option;
}

let builder ?(page_size = Pager.default_page_size) ?pool_pages () =
  {
    buf = Buffer.create page_size;
    buf_records = 0;
    buf_first = None;
    pages_rev = [];
    metas_rev = [];
    count = 0;
    docs = 0;
    last_key = (-1, -1);
    page_size;
    pool_pages;
  }

let push_page b meta page =
  b.pages_rev <- page :: b.pages_rev;
  b.metas_rev <- meta :: b.metas_rev;
  b.count <- b.count + meta.records;
  if meta.first_doc >= b.docs then b.docs <- meta.first_doc + 1

let flush_page b =
  match b.buf_first with
  | None -> ()
  | Some (first_doc, first_start) ->
    push_page b
      { first_doc; first_start; records = b.buf_records }
      (Buffer.to_bytes b.buf);
    Buffer.clear b.buf;
    b.buf_records <- 0;
    b.buf_first <- None

let add b (rec_ : Element_rec.t) =
  if (rec_.doc, rec_.start) <= b.last_key then
    invalid_arg "Element_store.add: records out of order";
  b.last_key <- (rec_.doc, rec_.start);
  let scratch = Buffer.create 64 in
  Element_rec.encode scratch rec_;
  let len = Buffer.length scratch in
  (* A page never mixes documents (records do not store a doc id of
     their own) and never grows past the page size once non-empty. *)
  let doc_boundary =
    match b.buf_first with
    | Some (d, _) -> d <> rec_.doc
    | None -> false
  in
  if Buffer.length b.buf > 0
     && (doc_boundary || Buffer.length b.buf + len > b.page_size)
  then flush_page b;
  if b.buf_first = None then b.buf_first <- Some (rec_.doc, rec_.start);
  Buffer.add_buffer b.buf scratch;
  b.buf_records <- b.buf_records + 1

let finish b pager =
  {
    pager;
    metas = Array.of_list (List.rev b.metas_rev);
    elements = b.count;
    documents = b.docs;
  }

let freeze b =
  flush_page b;
  let pager = Pager.create ?pool_pages:b.pool_pages ~page_size:b.page_size () in
  List.iter (fun page -> ignore (Pager.append_page pager page)) (List.rev b.pages_rev);
  finish b pager

let element_count t = t.elements
let document_count t = t.documents
let pager t = t.pager

(* Index of the last page whose first key is <= (doc, start). *)
let locate_page t ~doc ~start =
  let key_le m = (m.first_doc, m.first_start) <= (doc, start) in
  if Array.length t.metas = 0 || not (key_le t.metas.(0)) then None
  else begin
    let lo = ref 0 and hi = ref (Array.length t.metas - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if key_le t.metas.(mid) then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let find_in_page t page_id ~doc ~start ~decode =
  let page = Pager.read_page t.pager page_id in
  let meta = t.metas.(page_id) in
  let rec go i off =
    if i >= meta.records then None
    else begin
      let rec_, next = decode ~doc:meta.first_doc page off in
      if rec_.Element_rec.doc = doc && rec_.Element_rec.start = start then
        Some rec_
      else if rec_.Element_rec.start > start then None
      else go (i + 1) next
    end
  in
  go 0 0

let get t ~doc ~start =
  match locate_page t ~doc ~start with
  | None -> None
  | Some page_id -> find_in_page t page_id ~doc ~start ~decode:Element_rec.decode_meta

let get_text t ~doc ~start =
  match locate_page t ~doc ~start with
  | None -> None
  | Some page_id ->
    Option.map
      (fun r -> r.Element_rec.text)
      (find_in_page t page_id ~doc ~start ~decode:Element_rec.decode)

let scan_pages t ~from_page ?(with_text = false) ~stop f =
  let decode = if with_text then Element_rec.decode else Element_rec.decode_meta in
  let n = Array.length t.metas in
  let rec go page_id =
    if page_id >= n then ()
    else begin
      let meta = t.metas.(page_id) in
      if stop meta then ()
      else begin
        let page = Pager.read_page t.pager page_id in
        let off = ref 0 in
        for _ = 1 to meta.records do
          let rec_, next = decode ~doc:meta.first_doc page !off in
          f rec_;
          off := next
        done;
        go (page_id + 1)
      end
    end
  in
  go from_page

let scan t ?with_text f =
  scan_pages t ~from_page:0 ?with_text ~stop:(fun _ -> false) f

let scan_doc t ~doc ?with_text f =
  let from_page =
    match locate_page t ~doc ~start:0 with Some p -> p | None -> 0
  in
  scan_pages t ~from_page ?with_text
    ~stop:(fun meta -> meta.first_doc > doc)
    (fun rec_ -> if rec_.Element_rec.doc = doc then f rec_)

let subtree_texts t ~doc ~start ~end_ =
  let acc = ref [] in
  let from_page =
    match locate_page t ~doc ~start with Some p -> p | None -> 0
  in
  scan_pages t ~from_page ~with_text:true
    ~stop:(fun meta -> (meta.first_doc, meta.first_start) > (doc, end_))
    (fun rec_ ->
      if
        rec_.Element_rec.doc = doc
        && rec_.Element_rec.start >= start
        && rec_.Element_rec.end_ <= end_
        && rec_.Element_rec.text <> ""
      then acc := rec_.Element_rec.text :: !acc);
  List.rev !acc

(* Base pages are taken as they are: a page holds one document's
   records and no doc id, so only its meta is re-stamped with the new
   id. Delta records are re-encoded, with the catalog's tag ids, after
   the last base page; the merged pager is born pinned. *)
let merge ~base ~remap ~delta =
  let b = builder ~page_size:(Pager.page_size base.pager) () in
  Array.iteri
    (fun id meta ->
      let doc = remap.(meta.first_doc) in
      if doc >= 0 then
        push_page b { meta with first_doc = doc } (Pager.stable_page base.pager id))
    base.metas;
  b.last_key <- (b.docs, -1);
  Option.iter
    (fun (d, doc_offset, tag_of) ->
      scan d ~with_text:true (fun (r : Element_rec.t) ->
          add b { r with doc = doc_offset + r.doc; tag = tag_of r.tag }))
    delta;
  flush_page b;
  finish b
    (Pager.of_pages ~page_size:b.page_size
       (Array.of_list (List.rev b.pages_rev)))

(* The section is emitted in pieces so that no buffer holds the pages
   again: a small header, then per page its meta and the page itself. *)
let save t emit =
  let buf = Buffer.create 32 in
  let flush () =
    emit (Buffer.contents buf);
    Buffer.clear buf
  in
  Ir.Codec.add_varint buf (Pager.page_size t.pager);
  Ir.Codec.add_varint buf t.elements;
  Ir.Codec.add_varint buf t.documents;
  Ir.Codec.add_varint buf (Array.length t.metas);
  Array.iteri
    (fun page_id meta ->
      Ir.Codec.add_varint buf meta.first_doc;
      Ir.Codec.add_varint buf meta.first_start;
      Ir.Codec.add_varint buf meta.records;
      let page = Pager.stable_page t.pager page_id in
      Ir.Codec.add_varint buf (Bytes.length page);
      flush ();
      (* stable pages never change, so the string view is safe *)
      emit (Bytes.unsafe_to_string page))
    t.metas;
  if Buffer.length buf > 0 then flush ()

(* Zero-copy load: the page table is decoded (it is tiny), but page
   payloads stay where they are — (offset, length) slices of the
   mapped image, materialized by the pager only when a query first
   touches them. Cold open cost is the page table, not the data. *)
let load_mapped buf off =
  let page_size, off = Ir.Codec.read_varint_buf buf off in
  let elements, off = Ir.Codec.read_varint_buf buf off in
  let documents, off = Ir.Codec.read_varint_buf buf off in
  let npages, off = Ir.Codec.read_varint_buf buf off in
  let total = Ir.Codec.buf_length buf in
  let metas = Array.make npages { first_doc = 0; first_start = 0; records = 0 } in
  let slices = Array.make npages (0, 0) in
  let off = ref off in
  for page_id = 0 to npages - 1 do
    let first_doc, o = Ir.Codec.read_varint_buf buf !off in
    let first_start, o = Ir.Codec.read_varint_buf buf o in
    let records, o = Ir.Codec.read_varint_buf buf o in
    let len, o = Ir.Codec.read_varint_buf buf o in
    if len < 0 || o + len > total then
      raise (Ir.Codec.Truncated "element page runs past end of image");
    metas.(page_id) <- { first_doc; first_start; records };
    slices.(page_id) <- (o, len);
    off := o + len
  done;
  let pager = Pager.of_mapped ~page_size ~buf slices in
  ({ pager; metas; elements; documents }, !off)

type stats = {
  distinct_terms : int;
  total_occurrences : int;
  documents : int;
  bytes : int;
}

type per_term = {
  mutable build : Postings.builder option;
  mutable frozen : Postings.t option;
  mutable doc_freq : int;
  mutable last_doc : int;
}

type builder = {
  dict : Dictionary.t;
  mutable lists : per_term array;
  stem : bool;
  mutable docs : int;
  mutable occurrences : int;
}

type t = {
  dictionary : Dictionary.t;
  postings : Postings.t array;
  doc_freqs : int array;
  documents : int;
  total : int;
  is_stemmed : bool;
}

let builder ?(stem = false) () =
  {
    dict = Dictionary.create ();
    lists = Array.make 16 { build = None; frozen = None; doc_freq = 0; last_doc = -1 };
    stem;
    docs = 0;
    occurrences = 0;
  }

let fresh_per_term () =
  { build = Some (Postings.builder ()); frozen = None; doc_freq = 0;
    last_doc = -1 }

let per_term b id =
  let capacity = Array.length b.lists in
  if id >= capacity then begin
    let fresh =
      Array.make (max (capacity * 2) (id + 1))
        { build = None; frozen = None; doc_freq = 0; last_doc = -1 }
    in
    Array.blit b.lists 0 fresh 0 capacity;
    b.lists <- fresh
  end;
  if b.lists.(id).build = None && b.lists.(id).frozen = None then
    b.lists.(id) <- fresh_per_term ();
  b.lists.(id)

let normalize b term = if b.stem then Stemmer.stem term else term

let add_occurrence b ~doc ~node ~term ~pos =
  let id = Dictionary.intern b.dict (normalize b term) in
  let pt = per_term b id in
  (match pt.build with
  | Some pb -> Postings.push pb ~doc ~node ~pos
  | None -> assert false (* builders are never frozen before [freeze] *));
  if pt.last_doc <> doc then begin
    pt.doc_freq <- pt.doc_freq + 1;
    pt.last_doc <- doc
  end;
  if doc >= b.docs then b.docs <- doc + 1;
  b.occurrences <- b.occurrences + 1

let index_text b ~doc ~node ~start_pos text =
  Tokenizer.fold ~start_pos
    (fun ~acc:next (tok : Token.t) ->
      add_occurrence b ~doc ~node ~term:tok.term ~pos:tok.pos;
      max next (tok.pos + 1))
    start_pos text

let freeze b =
  let n = Dictionary.size b.dict in
  let postings =
    Array.init n (fun id ->
        match b.lists.(id).build with
        | Some pb -> Postings.freeze pb
        | None -> Postings.of_list [])
  in
  let doc_freqs = Array.init n (fun id -> b.lists.(id).doc_freq) in
  {
    dictionary = b.dict;
    postings;
    doc_freqs;
    documents = b.docs;
    total = b.occurrences;
    is_stemmed = b.stem;
  }

(* Each term's list is one unboxed scan of the base list through
   [remap], then the delta's list shifted by its offset, into one
   builder. Terms keep the order a re-add interns them in: base terms
   with a surviving occurrence in base id order, then the delta's
   other terms in delta id order. *)
let merge ~base ~remap ~delta =
  let dict = Dictionary.create () in
  let lists = ref [] and documents = ref 0 and total = ref 0 in
  let pb = Postings.builder () and df = ref 0 and last = ref (-1) in
  let push doc node pos =
    if doc <> !last then begin
      incr df;
      last := doc
    end;
    Postings.push pb ~doc ~node ~pos
  in
  (* close the list pushed so far under [term] *)
  let emit term =
    ignore (Dictionary.intern dict term);
    let p = Postings.freeze pb in
    lists := (p, !df) :: !lists;
    total := !total + Postings.length p;
    documents := max !documents (!last + 1);
    df := 0;
    last := -1
  in
  let scan_delta id =
    Option.iter
      (fun (d, offset) ->
        Postings.scan d.postings.(id) (fun doc node pos -> push (offset + doc) node pos))
      delta
  in
  let taken =
    match delta with
    | Some (d, _) -> Array.make (Array.length d.postings) false
    | None -> [||]
  in
  for id = 0 to Array.length base.postings - 1 do
    Postings.scan base.postings.(id) (fun doc node pos ->
        let doc = remap.(doc) in
        if doc >= 0 then push doc node pos);
    if !df > 0 then begin
      let term = Dictionary.term base.dictionary id in
      (match delta with
      | Some (d, _) -> (
        match Dictionary.find d.dictionary term with
        | Some did ->
          taken.(did) <- true;
          scan_delta did
        | None -> ())
      | None -> ());
      emit term
    end
  done;
  Option.iter
    (fun (d, _) ->
      Array.iteri
        (fun id taken ->
          if not taken then begin
            scan_delta id;
            if !df > 0 then emit (Dictionary.term d.dictionary id)
          end)
        taken)
    delta;
  let lists = Array.of_list (List.rev !lists) in
  {
    dictionary = dict;
    postings = Array.map fst lists;
    doc_freqs = Array.map snd lists;
    documents = !documents;
    total = !total;
    is_stemmed = base.is_stemmed;
  }

let normalize_q t term =
  let term = String.lowercase_ascii term in
  if t.is_stemmed then Stemmer.stem term else term

let lookup t term =
  match Dictionary.find t.dictionary (normalize_q t term) with
  | Some id -> Some t.postings.(id)
  | None -> None

let cursor t term = Option.map Postings.cursor (lookup t term)

let collection_freq t term =
  match lookup t term with Some p -> Postings.length p | None -> 0

let doc_freq t term =
  match Dictionary.find t.dictionary (normalize_q t term) with
  | Some id -> t.doc_freqs.(id)
  | None -> 0

let document_count t = t.documents
let dictionary t = t.dictionary
let stemmed t = t.is_stemmed

let stats t =
  {
    distinct_terms = Array.length t.postings;
    total_occurrences = t.total;
    documents = t.documents;
    bytes = Array.fold_left (fun acc p -> acc + Postings.byte_size p) 0 t.postings;
  }

let terms_by_freq t =
  let all = ref [] in
  Dictionary.iter
    (fun term id -> all := (term, Postings.length t.postings.(id)) :: !all)
    t.dictionary;
  List.sort (fun (_, a) (_, b) -> compare b a) !all

let add_string buf s =
  Codec.add_varint buf (String.length s);
  Buffer.add_string buf s

let save t buf =
  Codec.add_varint buf (if t.is_stemmed then 1 else 0);
  Codec.add_varint buf t.documents;
  Codec.add_varint buf t.total;
  let n = Array.length t.postings in
  Codec.add_varint buf n;
  for id = 0 to n - 1 do
    add_string buf (Dictionary.term t.dictionary id);
    Codec.add_varint buf t.doc_freqs.(id);
    Codec.add_varint buf (Postings.length t.postings.(id));
    add_string buf (Postings.serialize t.postings.(id))
  done

(* Posting lists keep zero-copy packed views into [buf]
   ({!Postings.deserialize_buf}), and the term strings are never
   materialized: only each term's byte range is recorded and the
   dictionary is a mapped view over [buf] ({!Dictionary.of_mapped})
   whose strings and probe table build lazily on first use — over an
   mmap'd image the open allocates nothing proportional to the term
   bytes. *)
let load_buf buf off =
  let stemmed, off = Codec.read_varint_buf buf off in
  let documents, off = Codec.read_varint_buf buf off in
  let total, off = Codec.read_varint_buf buf off in
  let n, off = Codec.read_varint_buf buf off in
  let offs = Array.make n 0 in
  let lens = Array.make n 0 in
  let postings = Array.make n (Postings.of_list []) in
  let doc_freqs = Array.make n 0 in
  let off = ref off in
  for id = 0 to n - 1 do
    let tlen, o = Codec.read_varint_buf buf !off in
    if tlen < 0 || o + tlen > Codec.buf_length buf then
      raise (Codec.Truncated "term string shorter than its header");
    offs.(id) <- o;
    lens.(id) <- tlen;
    let o = o + tlen in
    let df, o = Codec.read_varint_buf buf o in
    let count, o = Codec.read_varint_buf buf o in
    let len, o = Codec.read_varint_buf buf o in
    if len < 0 || o + len > Codec.buf_length buf then
      raise (Codec.Truncated "posting payload shorter than its header");
    let p, pend = Postings.deserialize_buf ~count buf o in
    if pend > o + len then
      raise (Codec.Truncated "posting payload overruns its framing");
    postings.(id) <- p;
    doc_freqs.(id) <- df;
    off := o + len
  done;
  ( {
      dictionary = Dictionary.of_mapped buf ~offs ~lens;
      postings;
      doc_freqs;
      documents;
      total;
      is_stemmed = stemmed = 1;
    },
    !off )

let load bytes off = load_buf (Codec.buf_of_bytes bytes) off

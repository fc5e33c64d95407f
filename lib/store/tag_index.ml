type item = { doc : int; start : int; end_ : int; level : int }

type t = {
  by_tag : item array array;
  everything : item array;
  everything_tags : int array;  (* tag of everything.(i), for [save] *)
}

type builder = {
  mutable ntags : int;
  mutable all_rev : (int * item) list;  (* (tag, item) *)
  mutable total : int;
  mutable last : int * int;
}

(* The per-tag table starts at 16 entries and doubles (or jumps to
   [tag + 1]) when a tag does not fit; its length is what an image
   records as the tag count, so [merge] grows it the same way. *)
let initial_tags = 16

let grown capacity tag =
  if tag < capacity then capacity else max (capacity * 2) (tag + 1)

let builder () = { ntags = initial_tags; all_rev = []; total = 0; last = (-1, -1) }

let add b ~tag item =
  if (item.doc, item.start) <= b.last then
    invalid_arg "Tag_index.add: items out of order";
  b.last <- (item.doc, item.start);
  b.ntags <- grown b.ntags tag;
  b.all_rev <- (tag, item) :: b.all_rev;
  b.total <- b.total + 1

let dummy = { doc = 0; start = 0; end_ = 0; level = 0 }

(* The per-tag arrays from the flat stream by one counting pass: each
   is a stable subsequence of the stream, so per-tag document order
   holds by construction. *)
let of_stream ~ntags everything everything_tags =
  let counts = Array.make ntags 0 in
  Array.iter (fun tg -> counts.(tg) <- counts.(tg) + 1) everything_tags;
  let by_tag = Array.init ntags (fun tg -> Array.make counts.(tg) dummy) in
  let fill = Array.make ntags 0 in
  Array.iteri
    (fun i tg ->
      by_tag.(tg).(fill.(tg)) <- everything.(i);
      fill.(tg) <- fill.(tg) + 1)
    everything_tags;
  { by_tag; everything; everything_tags }

let freeze b =
  let n = b.total in
  let everything = Array.make n dummy in
  let everything_tags = Array.make n 0 in
  List.iteri
    (fun i (tag, item) ->
      let j = n - 1 - i in
      everything.(j) <- item;
      everything_tags.(j) <- tag)
    b.all_rev;
  of_stream ~ntags:b.ntags everything everything_tags

let merge ~base ~remap ~delta =
  let live = ref 0 in
  Array.iter (fun it -> if remap.(it.doc) >= 0 then incr live) base.everything;
  let added =
    match delta with None -> 0 | Some (d, _, _) -> Array.length d.everything
  in
  let n = !live + added in
  let everything = Array.make n dummy and everything_tags = Array.make n 0 in
  let k = ref 0 and ntags = ref initial_tags in
  let put item tag =
    everything.(!k) <- item;
    everything_tags.(!k) <- tag;
    ntags := grown !ntags tag;
    incr k
  in
  Array.iteri
    (fun i it ->
      let doc = remap.(it.doc) in
      if doc >= 0 then
        put (if doc = it.doc then it else { it with doc }) base.everything_tags.(i))
    base.everything;
  Option.iter
    (fun (d, doc_offset, tag_of) ->
      Array.iteri
        (fun i it ->
          put { it with doc = doc_offset + it.doc } (tag_of d.everything_tags.(i)))
        d.everything)
    delta;
  of_stream ~ntags:!ntags everything everything_tags

let iter t f = Array.iteri (fun i item -> f ~tag:t.everything_tags.(i) item) t.everything

let nodes t ~tag =
  if tag >= 0 && tag < Array.length t.by_tag then t.by_tag.(tag) else [||]

let all t = t.everything
let count t ~tag = Array.length (nodes t ~tag)
let tag_count t = Array.length t.by_tag

(* Serialized as the flat (tag, item) stream in document order
   (TIXDB004 section 5); the per-tag arrays are rebuilt at load by
   [of_stream]. *)

let save t buf =
  Ir.Codec.add_varint buf (Array.length t.by_tag);
  Ir.Codec.add_varint buf (Array.length t.everything);
  Array.iteri
    (fun i item ->
      Ir.Codec.add_varint buf t.everything_tags.(i);
      Ir.Codec.add_varint buf item.doc;
      Ir.Codec.add_varint buf item.start;
      Ir.Codec.add_varint buf item.end_;
      Ir.Codec.add_varint buf item.level)
    t.everything

let load buf off =
  let ntags, off = Ir.Codec.read_varint_buf buf off in
  let total, off = Ir.Codec.read_varint_buf buf off in
  let everything = Array.make total dummy in
  let everything_tags = Array.make total 0 in
  let off = ref off in
  let rd () =
    let v, o = Ir.Codec.read_varint_buf buf !off in
    off := o;
    v
  in
  for i = 0 to total - 1 do
    let tag = rd () in
    if tag >= ntags then failwith "Tag_index.load: tag id out of range";
    let doc = rd () in
    let start = rd () in
    let end_ = rd () in
    let level = rd () in
    everything_tags.(i) <- tag;
    everything.(i) <- { doc; start; end_; level }
  done;
  (of_stream ~ntags everything everything_tags, !off)

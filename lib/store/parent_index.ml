type entry = {
  parent : int;
  child_count : int;
  level : int;
  end_ : int;
  tag : int;
}

type per_doc = {
  starts : int array;
  parents : int array;
  child_counts : int array;
  levels : int array;
  ends : int array;
  tags : int array;
}

type t = { docs : per_doc array; total : int }

type doc_builder = {
  mutable b_starts : int list;
  mutable b_entries : entry list;
  mutable b_count : int;
  mutable b_last : int;
}

type builder = {
  mutable per_doc : doc_builder array;
  mutable ndocs : int;
  mutable total : int;
}

let builder () = { per_doc = [||]; ndocs = 0; total = 0 }

let fresh_doc () = { b_starts = []; b_entries = []; b_count = 0; b_last = -1 }

let doc_builder b doc =
  let capacity = Array.length b.per_doc in
  if doc >= capacity then begin
    let fresh = Array.init (max (capacity * 2) (doc + 1)) (fun _ -> fresh_doc ()) in
    Array.blit b.per_doc 0 fresh 0 capacity;
    b.per_doc <- fresh
  end;
  if doc >= b.ndocs then b.ndocs <- doc + 1;
  b.per_doc.(doc)

let add b ~doc ~start entry =
  let db = doc_builder b doc in
  if start <= db.b_last then
    invalid_arg "Parent_index.add: starts out of order";
  db.b_last <- start;
  db.b_starts <- start :: db.b_starts;
  db.b_entries <- entry :: db.b_entries;
  db.b_count <- db.b_count + 1;
  b.total <- b.total + 1

let freeze b =
  let freeze_doc db =
    let n = db.b_count in
    let starts = Array.make n 0
    and parents = Array.make n 0
    and child_counts = Array.make n 0
    and levels = Array.make n 0
    and ends = Array.make n 0
    and tags = Array.make n 0 in
    (* the lists are in reverse start order *)
    List.iteri
      (fun i start -> starts.(n - 1 - i) <- start)
      db.b_starts;
    List.iteri
      (fun i e ->
        let j = n - 1 - i in
        parents.(j) <- e.parent;
        child_counts.(j) <- e.child_count;
        levels.(j) <- e.level;
        ends.(j) <- e.end_;
        tags.(j) <- e.tag)
      db.b_entries;
    { starts; parents; child_counts; levels; ends; tags }
  in
  { docs = Array.init b.ndocs (fun d -> freeze_doc b.per_doc.(d));
    total = b.total }

(* Entries are document-relative (start keys, parent start keys), so a
   kept base document's arrays are shared as they are; only a delta
   document's tag ids are translated. *)
let merge ~base ~remap ~delta =
  let kept = ref [] in
  Array.iteri (fun d pd -> if remap.(d) >= 0 then kept := pd :: !kept) base.docs;
  let added =
    match delta with
    | None -> []
    | Some (d, tag_of) ->
      Array.to_list
        (Array.map (fun pd -> { pd with tags = Array.map tag_of pd.tags }) d.docs)
  in
  let docs = Array.of_list (List.rev_append !kept added) in
  {
    docs;
    total = Array.fold_left (fun n pd -> n + Array.length pd.starts) 0 docs;
  }

let find t ~doc ~start =
  if doc < 0 || doc >= Array.length t.docs then None
  else begin
    let d = t.docs.(doc) in
    let lo = ref 0 and hi = ref (Array.length d.starts - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if d.starts.(mid) = start then begin
        found :=
          Some
            {
              parent = d.parents.(mid);
              child_count = d.child_counts.(mid);
              level = d.levels.(mid);
              end_ = d.ends.(mid);
              tag = d.tags.(mid);
            };
        lo := !hi + 1
      end
      else if d.starts.(mid) < start then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let parent_of t ~doc ~start =
  match find t ~doc ~start with
  | Some { parent; _ } when parent >= 0 -> Some parent
  | Some _ | None -> None

let entry_count (t : t) = t.total

(* Serialized so an image open loads the index directly instead of
   rebuilding it with a full element-table scan (TIXDB004 section 4).
   Parents are stored +1 because a root's parent is -1. *)

let save t buf =
  Ir.Codec.add_varint buf (Array.length t.docs);
  Ir.Codec.add_varint buf t.total;
  Array.iter
    (fun d ->
      let n = Array.length d.starts in
      Ir.Codec.add_varint buf n;
      for i = 0 to n - 1 do
        Ir.Codec.add_varint buf d.starts.(i);
        Ir.Codec.add_varint buf (d.parents.(i) + 1);
        Ir.Codec.add_varint buf d.child_counts.(i);
        Ir.Codec.add_varint buf d.levels.(i);
        Ir.Codec.add_varint buf d.ends.(i);
        Ir.Codec.add_varint buf d.tags.(i)
      done)
    t.docs

let load buf off =
  let ndocs, off = Ir.Codec.read_varint_buf buf off in
  let total, off = Ir.Codec.read_varint_buf buf off in
  let off = ref off in
  let docs =
    Array.init ndocs (fun _ ->
        let n, o = Ir.Codec.read_varint_buf buf !off in
        off := o;
        let starts = Array.make n 0
        and parents = Array.make n 0
        and child_counts = Array.make n 0
        and levels = Array.make n 0
        and ends = Array.make n 0
        and tags = Array.make n 0 in
        let rd () =
          let v, o = Ir.Codec.read_varint_buf buf !off in
          off := o;
          v
        in
        for i = 0 to n - 1 do
          starts.(i) <- rd ();
          parents.(i) <- rd () - 1;
          child_counts.(i) <- rd ();
          levels.(i) <- rd ();
          ends.(i) <- rd ();
          tags.(i) <- rd ()
        done;
        { starts; parents; child_counts; levels; ends; tags })
  in
  ({ docs; total }, !off)

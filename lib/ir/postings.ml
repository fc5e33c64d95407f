type occ = { doc : int; node : int; pos : int }

let compare_occ a b =
  match compare a.doc b.doc with 0 -> compare a.pos b.pos | c -> c

let block_size = 128

(* One entry per block of [block_size] occurrences. Each block is
   self-contained frame-of-reference data: a 3-byte header holding the
   block's bit widths (doc-delta, zigzag node-delta, pos-delta)
   followed by the three packed field streams. [sk_off] is the byte
   offset of the block header within the packed region, and
   [sk_prev_*] snapshot the decoder state entering the block (the last
   occurrence of the previous block), so any block decodes
   independently — sequential scans decode block after block, seeks
   binary-search the table and decode only the landing block.
   [sk_first_*] duplicate the first occurrence's sort key for the
   binary search; [sk_max_node] and [sk_max_tf] are per-block
   summaries for structural and score-based pruning. *)
type skip = {
  sk_off : int;  (* byte offset of the block header in the packed region *)
  sk_prev_doc : int;
  sk_prev_node : int;
  sk_prev_pos : int;  (* decoder state entering the block *)
  sk_first_doc : int;
  sk_first_pos : int;  (* the block's first occurrence *)
  sk_max_node : int;  (* largest owning-element key in the block *)
  sk_max_tf : int;
      (* max occurrences, over documents intersecting this block, of
         the term in that whole document (not clipped to the block) *)
}

let zigzag v = if v >= 0 then v lsl 1 else ((-v) lsl 1) - 1

let unzigzag e = if e land 1 = 0 then e lsr 1 else -((e + 1) lsr 1)

type builder = {
  buf : Buffer.t;  (* packed blocks already flushed *)
  docs_d : int array;  (* pending block: doc deltas (0 = same doc) *)
  nodes_d : int array;  (* pending block: zigzag node deltas *)
  poss_d : int array;  (* pending block: pos deltas *)
  mutable pending : int;  (* occupancy of the pending block *)
  mutable count : int;
  mutable last_doc : int;
  mutable last_node : int;
  mutable last_pos : int;
  mutable rev_skips : skip list;  (* max_node/max_tf patched at freeze *)
  mutable blk_max_node : int;  (* of the block under construction *)
  (* per-document run tracking for sk_max_tf *)
  mutable run_doc : int;
  mutable run_count : int;
  mutable run_first_block : int;
  mutable blk_tf : int array;
      (* per block: the largest whole-document run intersecting it *)
}

let builder () =
  {
    buf = Buffer.create 64;
    docs_d = Array.make block_size 0;
    nodes_d = Array.make block_size 0;
    poss_d = Array.make block_size 0;
    pending = 0;
    count = 0;
    last_doc = 0;
    last_node = 0;
    last_pos = 0;
    rev_skips = [];
    blk_max_node = 0;
    run_doc = -1;
    run_count = 0;
    run_first_block = 0;
    blk_tf = Array.make 4 0;
  }

let close_run b =
  if b.run_count > 0 then begin
    let last = (b.count - 1) / block_size in
    let cap = Array.length b.blk_tf in
    if last >= cap then begin
      let fresh = Array.make (max (2 * cap) (last + 1)) 0 in
      Array.blit b.blk_tf 0 fresh 0 cap;
      b.blk_tf <- fresh
    end;
    for i = b.run_first_block to last do
      if b.run_count > b.blk_tf.(i) then b.blk_tf.(i) <- b.run_count
    done
  end

(* the widest value's bit count is the bit count of their union *)
let field_width vals n =
  let all = ref 0 in
  for i = 0 to n - 1 do
    all := !all lor vals.(i)
  done;
  Codec.bits_needed !all

let flush_block b =
  if b.pending > 0 then begin
    let n = b.pending in
    let wd = field_width b.docs_d n in
    let wn = field_width b.nodes_d n in
    let wp = field_width b.poss_d n in
    Buffer.add_char b.buf (Char.chr wd);
    Buffer.add_char b.buf (Char.chr wn);
    Buffer.add_char b.buf (Char.chr wp);
    Codec.pack_bits b.buf b.docs_d n wd;
    Codec.pack_bits b.buf b.nodes_d n wn;
    Codec.pack_bits b.buf b.poss_d n wp;
    b.pending <- 0
  end

let push b ~doc ~node ~pos =
  if doc < b.last_doc || (doc = b.last_doc && b.count > 0 && pos < b.last_pos)
  then invalid_arg "Postings.add: occurrences out of order";
  if b.count mod block_size = 0 then begin
    (* pack the completed block, close its summary, snapshot the new
       one; [sk_off] is where the fresh block's header will land *)
    flush_block b;
    (match b.rev_skips with
    | sk :: rest when b.count > 0 ->
      b.rev_skips <- { sk with sk_max_node = b.blk_max_node } :: rest
    | _ -> ());
    b.rev_skips <-
      {
        sk_off = Buffer.length b.buf;
        sk_prev_doc = b.last_doc;
        sk_prev_node = b.last_node;
        sk_prev_pos = b.last_pos;
        sk_first_doc = doc;
        sk_first_pos = pos;
        sk_max_node = node;
        sk_max_tf = 0;
      }
      :: b.rev_skips;
    b.blk_max_node <- node
  end;
  let k = b.pending in
  if doc <> b.last_doc then begin
    b.docs_d.(k) <- doc - b.last_doc;
    (* node/pos restart from 0 on a document change *)
    b.nodes_d.(k) <- zigzag node;
    b.poss_d.(k) <- pos
  end
  else begin
    b.docs_d.(k) <- 0;
    b.nodes_d.(k) <- zigzag (node - b.last_node);
    b.poss_d.(k) <- pos - b.last_pos
  end;
  b.pending <- k + 1;
  if doc <> b.run_doc then begin
    close_run b;
    b.run_doc <- doc;
    b.run_count <- 1;
    b.run_first_block <- b.count / block_size
  end
  else b.run_count <- b.run_count + 1;
  if node > b.blk_max_node then b.blk_max_node <- node;
  b.last_doc <- doc;
  b.last_node <- node;
  b.last_pos <- pos;
  b.count <- b.count + 1

let add b occ = push b ~doc:occ.doc ~node:occ.node ~pos:occ.pos

type t = {
  data : Codec.buf;  (* holds the packed region (and possibly more) *)
  base : int;  (* offset of block 0's header within [data] *)
  len : int;  (* length of the packed region *)
  count : int;
  skips : skip array;
  max_tf : int;  (* max occurrences of the term in one document *)
}

(* Leaves the builder empty, ready for another list. *)
let freeze b =
  flush_block b;
  close_run b;
  (match b.rev_skips with
  | sk :: rest when b.count > 0 ->
    b.rev_skips <- { sk with sk_max_node = b.blk_max_node } :: rest
  | _ -> ());
  let skips = Array.of_list (List.rev b.rev_skips) in
  let skips = Array.mapi (fun i sk -> { sk with sk_max_tf = b.blk_tf.(i) }) skips in
  let max_tf = Array.fold_left (fun m sk -> max m sk.sk_max_tf) 0 skips in
  let data = Buffer.to_bytes b.buf in
  let t =
    {
      data = Codec.B data;
      base = 0;
      len = Bytes.length data;
      count = b.count;
      skips;
      max_tf;
    }
  in
  Buffer.clear b.buf;
  b.pending <- 0;
  b.count <- 0;
  b.last_doc <- 0;
  b.last_node <- 0;
  b.last_pos <- 0;
  b.rev_skips <- [];
  b.blk_max_node <- 0;
  b.run_doc <- -1;
  b.run_count <- 0;
  b.run_first_block <- 0;
  Array.fill b.blk_tf 0 (min (Array.length skips) (Array.length b.blk_tf)) 0;
  t

let length t = t.count
let byte_size t = t.len
let blocks t = Array.length t.skips
let max_tf t = t.max_tf
let block_first_doc t i = t.skips.(i).sk_first_doc

(* A cursor decodes one whole block at a time into flat arrays of
   absolute (doc, node, pos) values — straight-line shift/mask work —
   and then serves [next] as three array reads. [blk] is the decoded
   block (-1 before the first decode), [i] the next undelivered index
   within it, [n] its occupancy. Consumed count = blk*block_size + i
   (blocks before [blk] are always full). *)
type cursor = {
  list : t;
  docs : int array;
  nodes : int array;
  poss : int array;
  mutable blk : int;
  mutable i : int;
  mutable n : int;
}

let cursor list =
  {
    list;
    docs = Array.make block_size 0;
    nodes = Array.make block_size 0;
    poss = Array.make block_size 0;
    blk = -1;
    i = 0;
    n = 0;
  }

let bad_block () = raise (Codec.Truncated "posting block runs past its payload")

(* Validate block [b]'s frame and unpack its three raw delta streams
   into the caller's arrays; returns the block's occupancy. *)
let load_deltas t b docs nodes poss =
  let n = min block_size (t.count - (b * block_size)) in
  let sk = t.skips.(b) in
  if sk.sk_off < 0 || sk.sk_off + 3 > t.len then bad_block ();
  let off = t.base + sk.sk_off in
  let wd = Codec.buf_get t.data off in
  let wn = Codec.buf_get t.data (off + 1) in
  let wp = Codec.buf_get t.data (off + 2) in
  if wd > Codec.max_bit_width || wn > Codec.max_bit_width
     || wp > Codec.max_bit_width
  then bad_block ();
  let od = off + 3 in
  let on = od + Codec.packed_bytes ~n ~width:wd in
  let op = on + Codec.packed_bytes ~n ~width:wn in
  let oe = op + Codec.packed_bytes ~n ~width:wp in
  if oe > t.base + t.len then bad_block ();
  Codec.unpack_bits t.data ~off:od ~width:wd ~n docs;
  Codec.unpack_bits t.data ~off:on ~width:wn ~n nodes;
  Codec.unpack_bits t.data ~off:op ~width:wp ~n poss;
  n

let decode_block c b =
  let t = c.list in
  let n = load_deltas t b c.docs c.nodes c.poss in
  let sk = t.skips.(b) in
  let doc = ref sk.sk_prev_doc in
  let node = ref sk.sk_prev_node in
  let pos = ref sk.sk_prev_pos in
  for k = 0 to n - 1 do
    let dd = Array.unsafe_get c.docs k in
    if dd <> 0 then begin
      doc := !doc + dd;
      node := 0;
      pos := 0
    end;
    node := !node + unzigzag (Array.unsafe_get c.nodes k);
    pos := !pos + Array.unsafe_get c.poss k;
    Array.unsafe_set c.docs k !doc;
    Array.unsafe_set c.nodes k !node;
    Array.unsafe_set c.poss k !pos
  done;
  c.blk <- b;
  c.n <- n;
  c.i <- 0

let next c =
  if c.blk >= 0 && c.i < c.n then begin
    let k = c.i in
    c.i <- k + 1;
    Some { doc = c.docs.(k); node = c.nodes.(k); pos = c.poss.(k) }
  end
  else begin
    let b = c.blk + 1 in
    if b * block_size >= c.list.count then None
    else begin
      decode_block c b;
      c.i <- 1;
      Some { doc = c.docs.(0); node = c.nodes.(0); pos = c.poss.(0) }
    end
  end

let reset c =
  c.blk <- -1;
  c.i <- 0;
  c.n <- 0

(* First index in [i .. n) with (doc, pos) >= target; [n] if none.
   The decoded arrays are sorted by (doc, pos). *)
let lower_bound c ~doc ~pos =
  let lo = ref c.i and hi = ref c.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let d = c.docs.(mid) in
    if d < doc || (d = doc && c.poss.(mid) < pos) then lo := mid + 1
    else hi := mid
  done;
  !lo

(* First not-yet-delivered occurrence with [(doc, pos) >= target],
   consuming everything before it. The skip-table binary search only
   ever moves the cursor forward; after the jump, at most the blocks
   up to the target are decoded (one, in the common case). *)
let seek_pos c ~doc ~pos =
  let t = c.list in
  let nsk = Array.length t.skips in
  let seen = if c.blk < 0 then 0 else (c.blk * block_size) + c.i in
  if nsk > 1 && seen < t.count then begin
    let cur_block = seen / block_size in
    let le j =
      let sk = t.skips.(j) in
      sk.sk_first_doc < doc || (sk.sk_first_doc = doc && sk.sk_first_pos <= pos)
    in
    let lo = ref (cur_block + 1) and hi = ref (nsk - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if le mid then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best > c.blk then decode_block c !best
  end;
  let rec scan () =
    if c.blk >= 0 && c.i < c.n then begin
      let k = lower_bound c ~doc ~pos in
      if k < c.n then begin
        c.i <- k + 1;
        Some { doc = c.docs.(k); node = c.nodes.(k); pos = c.poss.(k) }
      end
      else begin
        c.i <- c.n;
        advance ()
      end
    end
    else advance ()
  and advance () =
    let b = c.blk + 1 in
    if b * block_size >= t.count then None
    else begin
      decode_block c b;
      scan ()
    end
  in
  scan ()

let seek_doc c doc = seek_pos c ~doc ~pos:0

let block_max_tf c =
  let t = c.list in
  let nsk = Array.length t.skips in
  if nsk = 0 then 0
  else begin
    let i = if c.blk < 0 then 0 else c.blk in
    t.skips.(min i (nsk - 1)).sk_max_tf
  end

let block_max_node c =
  let t = c.list in
  let nsk = Array.length t.skips in
  if nsk = 0 then 0
  else begin
    let i = if c.blk < 0 then 0 else c.blk in
    t.skips.(min i (nsk - 1)).sk_max_node
  end

let iter f t =
  let c = cursor t in
  let rec go () =
    match next c with
    | Some occ ->
      f occ;
      go ()
    | None -> ()
  in
  go ()

let scan t f =
  (* sequential decode with no per-occurrence allocation: unpack each
     block's raw delta streams, then one fused loop reconstructs the
     absolute values and hands out plain ints — no cursor state, no
     write-back of the reconstructed block *)
  let nblocks = Array.length t.skips in
  if nblocks > 0 then begin
    (* a short list needs arrays no longer than itself *)
    let size = min block_size t.count in
    let docs = Array.make size 0 in
    let nodes = Array.make size 0 in
    let poss = Array.make size 0 in
    for b = 0 to nblocks - 1 do
      let n = load_deltas t b docs nodes poss in
      let sk = t.skips.(b) in
      let doc = ref sk.sk_prev_doc in
      let node = ref sk.sk_prev_node in
      let pos = ref sk.sk_prev_pos in
      for k = 0 to n - 1 do
        let dd = Array.unsafe_get docs k in
        if dd <> 0 then begin
          doc := !doc + dd;
          node := 0;
          pos := 0
        end;
        node := !node + unzigzag (Array.unsafe_get nodes k);
        pos := !pos + Array.unsafe_get poss k;
        f !doc !node !pos
      done
    done
  end

let to_list t =
  let acc = ref [] in
  iter (fun occ -> acc := occ :: !acc) t;
  List.rev !acc

let of_list occs =
  let b = builder () in
  List.iter (add b) occs;
  freeze b

(* Serialized form: the skip table, then the packed region. Block
   membership is positional (block [i] covers occurrences
   [i*block_size ..]), so per-entry counts need not be stored. *)
let serialize t =
  let buf = Buffer.create (t.len + (Array.length t.skips * 12)) in
  Codec.add_varint buf (Array.length t.skips);
  let prev_off = ref 0 in
  Array.iter
    (fun sk ->
      Codec.add_varint buf (sk.sk_off - !prev_off);
      prev_off := sk.sk_off;
      Codec.add_varint buf sk.sk_prev_doc;
      Codec.add_varint buf sk.sk_prev_node;
      Codec.add_varint buf sk.sk_prev_pos;
      Codec.add_varint buf sk.sk_first_doc;
      Codec.add_varint buf sk.sk_first_pos;
      Codec.add_varint buf sk.sk_max_node;
      Codec.add_varint buf sk.sk_max_tf)
    t.skips;
  Codec.add_varint buf t.len;
  (match t.data with
  | Codec.B b when t.base = 0 && t.len = Bytes.length b -> Buffer.add_bytes buf b
  | _ -> Buffer.add_string buf (Codec.buf_sub_string t.data t.base t.len));
  Buffer.contents buf

(* Decoding keeps a view into [buf] — no payload copy. This is what
   makes postings decode directly out of an mmap'd image. *)
let deserialize_buf ~count buf off =
  let nsk, off = Codec.read_varint_buf buf off in
  let off = ref off in
  let prev_off = ref 0 in
  let skips =
    Array.init nsk (fun _ ->
        let rd () =
          let v, o = Codec.read_varint_buf buf !off in
          off := o;
          v
        in
        let d_off = rd () in
        let sk_off = !prev_off + d_off in
        prev_off := sk_off;
        let sk_prev_doc = rd () in
        let sk_prev_node = rd () in
        let sk_prev_pos = rd () in
        let sk_first_doc = rd () in
        let sk_first_pos = rd () in
        let sk_max_node = rd () in
        let sk_max_tf = rd () in
        {
          sk_off;
          sk_prev_doc;
          sk_prev_node;
          sk_prev_pos;
          sk_first_doc;
          sk_first_pos;
          sk_max_node;
          sk_max_tf;
        })
  in
  let len, base = Codec.read_varint_buf buf !off in
  if len < 0 || base + len > Codec.buf_length buf then
    raise (Codec.Truncated "posting payload shorter than its header");
  let max_tf = Array.fold_left (fun m sk -> max m sk.sk_max_tf) 0 skips in
  ({ data = buf; base; len; count; skips; max_tf }, base + len)

let deserialize ~count data =
  fst (deserialize_buf ~count (Codec.buf_of_string data) 0)

(* Tests for the IR substrate: tokenizer, stemmer, codec, postings,
   inverted index, phrase matching, tf-idf and similarity. *)

let check = Alcotest.check
let int_ = Alcotest.int
let string_ = Alcotest.string
let bool_ = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Tokenizer *)

let test_tokenizer_basic () =
  let toks = Ir.Tokenizer.tokens "Hello, World! 42x" in
  check
    (Alcotest.list (Alcotest.pair string_ int_))
    "tokens"
    [ ("hello", 0); ("world", 1); ("42x", 2) ]
    (List.map (fun (t : Ir.Token.t) -> (t.term, t.pos)) toks)

let test_tokenizer_start_pos () =
  let toks = Ir.Tokenizer.tokens ~start_pos:10 "a b" in
  check (Alcotest.list int_) "positions" [ 10; 11 ]
    (List.map (fun (t : Ir.Token.t) -> t.pos) toks)

let test_tokenizer_empty () =
  check int_ "no tokens" 0 (List.length (Ir.Tokenizer.tokens "  ,.;  "));
  check int_ "count" 0 (Ir.Tokenizer.count " .. ")

let test_tokenizer_count_matches =
  QCheck.Test.make ~name:"count = length tokens" ~count:500
    QCheck.printable_string (fun s ->
      Ir.Tokenizer.count s = List.length (Ir.Tokenizer.tokens s))

(* ------------------------------------------------------------------ *)
(* Stemmer: classic Porter test vectors *)

let porter_vectors =
  [
    ("caresses", "caress"); ("ponies", "poni"); ("ties", "ti");
    ("caress", "caress"); ("cats", "cat"); ("feed", "feed");
    ("agreed", "agre"); ("plastered", "plaster"); ("bled", "bled");
    ("motoring", "motor"); ("sing", "sing"); ("conflated", "conflat");
    ("troubled", "troubl"); ("sized", "size"); ("hopping", "hop");
    ("tanned", "tan"); ("falling", "fall"); ("hissing", "hiss");
    ("fizzed", "fizz"); ("failing", "fail"); ("filing", "file");
    ("happy", "happi"); ("sky", "sky"); ("relational", "relat");
    ("conditional", "condit"); ("rational", "ration");
    ("valenci", "valenc"); ("hesitanci", "hesit"); ("digitizer", "digit");
    ("radicalli", "radic");
    ("differentli", "differ"); ("vileli", "vile"); ("analogousli", "analog");
    ("vietnamization", "vietnam"); ("predication", "predic");
    ("operator", "oper"); ("feudalism", "feudal");
    ("decisiveness", "decis"); ("hopefulness", "hope");
    ("callousness", "callous"); ("formaliti", "formal");
    ("sensitiviti", "sensit"); ("sensibiliti", "sensibl");
    ("triplicate", "triplic"); ("formative", "form");
    ("formalize", "formal"); ("electriciti", "electr");
    ("electrical", "electr"); ("hopeful", "hope"); ("goodness", "good");
    ("allowance", "allow"); ("inference", "infer");
    ("airliner", "airlin"); ("gyroscopic", "gyroscop");
    ("adjustable", "adjust"); ("defensible", "defens");
    ("irritant", "irrit"); ("replacement", "replac");
    ("adjustment", "adjust"); ("dependent", "depend");
    ("adoption", "adopt");
    ("communism", "commun"); ("activate", "activ");
    ("angulariti", "angular"); ("homologous", "homolog");
    ("effective", "effect"); ("bowdlerize", "bowdler");
    ("probate", "probat"); ("rate", "rate"); ("cease", "ceas");
    ("controll", "control"); ("roll", "roll");
    ("engines", "engin"); ("engine", "engin");
  ]

let test_stemmer_vectors () =
  List.iter
    (fun (w, expected) ->
      check string_ (Printf.sprintf "stem %s" w) expected (Ir.Stemmer.stem w))
    porter_vectors

let test_stemmer_short () =
  check string_ "1-char" "a" (Ir.Stemmer.stem "a");
  check string_ "2-char" "is" (Ir.Stemmer.stem "is")

let test_stemmer_total =
  QCheck.Test.make ~name:"stemmer total on ascii words" ~count:500
    QCheck.(
      string_gen_of_size
        (QCheck.Gen.int_range 1 12)
        (QCheck.Gen.char_range 'a' 'z'))
    (fun w ->
      let s = Ir.Stemmer.stem w in
      String.length s > 0 && String.length s <= String.length w)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(int_bound max_int)
    (fun v ->
      let buf = Buffer.create 10 in
      Ir.Codec.add_varint buf v;
      let v', off = Ir.Codec.read_varint (Buffer.to_bytes buf) 0 in
      v = v' && off = Buffer.length buf && off = Ir.Codec.varint_size v)

let test_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:1000 QCheck.int (fun v ->
      (* keep within range so the doubled encoding fits in an int *)
      let v = v asr 2 in
      let buf = Buffer.create 10 in
      Ir.Codec.add_zigzag buf v;
      let v', _ = Ir.Codec.read_zigzag (Buffer.to_bytes buf) 0 in
      v = v')

let test_varint_sequence () =
  let buf = Buffer.create 64 in
  let values = [ 0; 1; 127; 128; 300; 1 lsl 20; (1 lsl 40) + 7 ] in
  List.iter (Ir.Codec.add_varint buf) values;
  let bytes = Buffer.to_bytes buf in
  let rec read off acc =
    if off >= Bytes.length bytes then List.rev acc
    else begin
      let v, off = Ir.Codec.read_varint bytes off in
      read off (v :: acc)
    end
  in
  check (Alcotest.list int_) "sequence" values (read 0 [])

(* ------------------------------------------------------------------ *)
(* Postings *)

let occ doc node pos = { Ir.Postings.doc; node; pos }

let test_postings_roundtrip () =
  let occs =
    [ occ 0 1 2; occ 0 1 5; occ 0 3 7; occ 1 0 1; occ 1 9 4; occ 3 2 0 ]
  in
  let p = Ir.Postings.of_list occs in
  check int_ "length" 6 (Ir.Postings.length p);
  check bool_ "roundtrip" true (Ir.Postings.to_list p = occs)

let test_postings_order_check () =
  let b = Ir.Postings.builder () in
  Ir.Postings.add b (occ 0 1 5);
  Alcotest.check_raises "out of order"
    (Invalid_argument "Postings.add: occurrences out of order") (fun () ->
      Ir.Postings.add b (occ 0 1 3))

let test_postings_cursor_reset () =
  let p = Ir.Postings.of_list [ occ 0 1 2; occ 0 1 5 ] in
  let c = Ir.Postings.cursor p in
  let _ = Ir.Postings.next c in
  Ir.Postings.reset c;
  match Ir.Postings.next c with
  | Some o -> check int_ "first again" 2 o.Ir.Postings.pos
  | None -> Alcotest.fail "expected an occurrence"

let gen_occs =
  let open QCheck.Gen in
  list_size (0 -- 50) (triple (int_bound 5) (int_bound 100) (int_bound 1000))
  |> map (fun triples ->
         let sorted =
           List.sort_uniq
             (fun (d, _, p) (d', _, p') -> compare (d, p) (d', p'))
             triples
         in
         List.map (fun (doc, node, pos) -> occ doc node pos) sorted)

let test_postings_property =
  QCheck.Test.make ~name:"postings roundtrip (random)" ~count:300
    (QCheck.make gen_occs) (fun occs ->
      Ir.Postings.to_list (Ir.Postings.of_list occs) = occs)

(* --- skip-table seeks ---------------------------------------------- *)

(* Lists whose sizes straddle the block boundary (block_size = 128),
   plus a random mix of interleaved [next] and [seek_pos] calls.
   The oracle is the only sensible spec: seek returns exactly what a
   sequence of [next] calls discarding every occurrence below the
   target would. *)
let gen_seek_scenario =
  let open QCheck.Gen in
  let bs = Ir.Postings.block_size in
  let sized n =
    list_repeat n (triple (int_bound 20) (int_bound 100) (int_range 1 10))
    >|= fun steps ->
    let doc = ref 0 and pos = ref 0 in
    List.map
      (fun (adv, node, pgap) ->
        if adv = 0 then begin
          incr doc;
          pos := pgap
        end
        else pos := !pos + pgap;
        occ !doc node !pos)
      steps
  in
  let size =
    oneofl [ 0; 1; 2; bs - 1; bs; bs + 1; (2 * bs) + 17; 37 ] >>= fun base ->
    int_bound 8 >|= fun jitter -> max 0 (base + jitter - 4)
  in
  (size >>= sized) >>= fun occs ->
  let max_doc =
    List.fold_left (fun a (o : Ir.Postings.occ) -> max a o.doc) 0 occs
  in
  let max_pos =
    List.fold_left (fun a (o : Ir.Postings.occ) -> max a o.pos) 0 occs
  in
  let op =
    frequency
      [
        (1, return `Next);
        ( 2,
          pair (int_bound (max_doc + 2)) (int_bound (max_pos + 5)) >|= fun t ->
          `Seek t );
        (* exact keys: both hits and the occurrence just past one *)
        ( 2,
          if occs = [] then return `Next
          else
            int_bound (List.length occs - 1) >|= fun i ->
            let o = List.nth occs i in
            `Seek (o.Ir.Postings.doc, o.Ir.Postings.pos) );
      ]
  in
  pair (return occs) (list_size (1 -- 40) op)

let oracle_run occs ops =
  let remaining = ref occs in
  let take () =
    match !remaining with
    | [] -> None
    | o :: rest ->
      remaining := rest;
      Some o
  in
  List.map
    (fun op ->
      match op with
      | `Next -> take ()
      | `Seek (d, p) ->
        let below (o : Ir.Postings.occ) = (o.doc, o.pos) < (d, p) in
        remaining := List.filter (fun o -> not (below o)) !remaining;
        take ())
    ops

let cursor_run c ops =
  List.map
    (fun op ->
      match op with
      | `Next -> Ir.Postings.next c
      | `Seek (d, p) -> Ir.Postings.seek_pos c ~doc:d ~pos:p)
    ops

(* The list model of a posting list: its occurrences in order, the
   largest per-document count, one block per [block_size]
   occurrences. *)
let model_max_tf (occs : Ir.Postings.occ list) =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (o : Ir.Postings.occ) ->
      Hashtbl.replace counts o.doc
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts o.doc)))
    occs;
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0

let model_blocks occs =
  (List.length occs + Ir.Postings.block_size - 1) / Ir.Postings.block_size

let test_seek_matches_next_oracle =
  QCheck.Test.make ~name:"seek_pos/next agree with sequential oracle"
    ~count:500 (QCheck.make gen_seek_scenario) (fun (occs, ops) ->
      let p = Ir.Postings.of_list occs in
      Ir.Postings.to_list p = occs
      && Ir.Postings.max_tf p = model_max_tf occs
      && Ir.Postings.blocks p = model_blocks occs
      && cursor_run (Ir.Postings.cursor p) ops = oracle_run occs ops)

let test_seek_survives_serialization =
  QCheck.Test.make ~name:"serialize/deserialize preserves seek behavior"
    ~count:200 (QCheck.make gen_seek_scenario) (fun (occs, ops) ->
      let p = Ir.Postings.of_list occs in
      let p' =
        Ir.Postings.deserialize ~count:(Ir.Postings.length p)
          (Ir.Postings.serialize p)
      in
      Ir.Postings.to_list p' = occs
      && Ir.Postings.blocks p' = Ir.Postings.blocks p
      && Ir.Postings.max_tf p' = Ir.Postings.max_tf p
      && cursor_run (Ir.Postings.cursor p') ops
         = cursor_run (Ir.Postings.cursor p) ops)

let test_seek_doc_is_seek_pos_zero =
  QCheck.Test.make ~name:"seek_doc d = seek_pos (d,0)" ~count:200
    (QCheck.make gen_seek_scenario) (fun (occs, ops) ->
      let docs_of ops =
        List.filter_map (function `Seek (d, _) -> Some d | `Next -> None) ops
      in
      let p = Ir.Postings.of_list occs in
      let a = Ir.Postings.cursor p and b = Ir.Postings.cursor p in
      List.for_all
        (fun d -> Ir.Postings.seek_doc a d = Ir.Postings.seek_pos b ~doc:d ~pos:0)
        (docs_of ops))

let test_seek_empty_and_edges () =
  let empty = Ir.Postings.of_list [] in
  let c = Ir.Postings.cursor empty in
  check bool_ "seek on empty" true (Ir.Postings.seek_pos c ~doc:0 ~pos:0 = None);
  check int_ "block_max_tf on empty" 0 (Ir.Postings.block_max_tf c);
  check int_ "blocks of empty" 0 (Ir.Postings.blocks empty);
  let single = Ir.Postings.of_list [ occ 2 1 7 ] in
  let c = Ir.Postings.cursor single in
  (match Ir.Postings.seek_pos c ~doc:2 ~pos:7 with
  | Some o -> check int_ "exact single hit" 7 o.Ir.Postings.pos
  | None -> Alcotest.fail "expected the single occurrence");
  check bool_ "drained after" true (Ir.Postings.next c = None);
  (* a list exactly one block long has one skip entry and no
     forward blocks to jump to *)
  let one_block =
    Ir.Postings.of_list
      (List.init Ir.Postings.block_size (fun i -> occ 0 0 (i + 1)))
  in
  check int_ "one block" 1 (Ir.Postings.blocks one_block);
  let c = Ir.Postings.cursor one_block in
  (match Ir.Postings.seek_pos c ~doc:0 ~pos:Ir.Postings.block_size with
  | Some o -> check int_ "last key" Ir.Postings.block_size o.Ir.Postings.pos
  | None -> Alcotest.fail "expected last occurrence")

let test_postings_max_tf () =
  (* doc 0: tf 3, doc 1: tf 5, doc 2: tf 1 *)
  let occs =
    List.init 3 (fun i -> occ 0 0 (i + 1))
    @ List.init 5 (fun i -> occ 1 0 (i + 1))
    @ [ occ 2 0 4 ]
  in
  let p = Ir.Postings.of_list occs in
  check int_ "global max_tf" 5 (Ir.Postings.max_tf p);
  (* block_max_tf is an upper bound for every doc the block touches *)
  let c = Ir.Postings.cursor p in
  let rec walk () =
    match Ir.Postings.next c with
    | None -> ()
    | Some o ->
      check bool_ "block bound holds" true
        (Ir.Postings.block_max_tf c
        >= List.length
             (List.filter (fun (x : Ir.Postings.occ) -> x.doc = o.doc) occs));
      walk ()
  in
  walk ()

let test_codec_truncated () =
  let expect_truncated name bytes off =
    match Ir.Codec.read_varint bytes off with
    | _ -> Alcotest.fail (name ^ ": expected Codec.Truncated")
    | exception Ir.Codec.Truncated _ -> ()
  in
  (* continuation bit set on the last byte *)
  expect_truncated "dangling continuation" (Bytes.make 1 '\x80') 0;
  expect_truncated "empty buffer" Bytes.empty 0;
  (* more continuation bytes than any 63-bit value needs *)
  expect_truncated "overlong varint" (Bytes.make 12 '\xff') 0;
  (* truncated posting payload *)
  let p = Ir.Postings.of_list [ occ 0 1 2; occ 0 1 5; occ 1 0 3 ] in
  let s = Ir.Postings.serialize p in
  match Ir.Postings.deserialize ~count:3 (String.sub s 0 (String.length s - 2)) with
  | _ -> Alcotest.fail "expected Truncated on clipped payload"
  | exception Ir.Codec.Truncated _ -> ()

(* --- frame-of-reference bit-packing -------------------------------- *)

(* pack_bits/unpack_bits roundtrip at every width 0..62, over both
   the Bytes and the Bigarray buffer backends. *)
let gen_packed_field =
  let open QCheck.Gen in
  int_range 0 Ir.Codec.max_bit_width >>= fun width ->
  int_range 0 300 >>= fun n ->
  let value =
    if width = 0 then return 0
    else if width >= 62 then map abs int >|= fun v -> v land max_int
    else int_bound ((1 lsl width) - 1)
  in
  list_repeat n value >|= fun vs -> (width, Array.of_list vs)

let unpack_via backend bytes ~width ~n =
  let buf =
    match backend with
    | `B -> Ir.Codec.buf_of_bytes (Bytes.of_string bytes)
    | `M ->
      let a =
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout
          (String.length bytes)
      in
      String.iteri (fun i c -> Bigarray.Array1.set a i c) bytes;
      Ir.Codec.M a
  in
  let out = Array.make n (-1) in
  Ir.Codec.unpack_bits buf ~off:0 ~width ~n out;
  out

let test_pack_bits_roundtrip =
  QCheck.Test.make ~name:"pack_bits/unpack_bits roundtrip (both backends)"
    ~count:500 (QCheck.make gen_packed_field) (fun (width, values) ->
      let buf = Buffer.create 64 in
      Ir.Codec.pack_bits buf values (Array.length values) width;
      let bytes = Buffer.contents buf in
      String.length bytes
      = Ir.Codec.packed_bytes ~n:(Array.length values) ~width
      && unpack_via `B bytes ~width ~n:(Array.length values) = values
      && unpack_via `M bytes ~width ~n:(Array.length values) = values)

let test_pack_bits_edges () =
  (* width 0 occupies no bytes and unpacks to zeros *)
  let buf = Buffer.create 4 in
  Ir.Codec.pack_bits buf [| 0; 0; 0 |] 3 0;
  check int_ "width 0 bytes" 0 (Buffer.length buf);
  check bool_ "width 0 zeros" true (unpack_via `B "" ~width:0 ~n:3 = [| 0; 0; 0 |]);
  (* max width carries max_int exactly *)
  let buf = Buffer.create 16 in
  Ir.Codec.pack_bits buf [| max_int; 0; max_int |] 3 62;
  check bool_ "width 62" true
    (unpack_via `B (Buffer.contents buf) ~width:62 ~n:3 = [| max_int; 0; max_int |]);
  check int_ "bits_needed 0" 0 (Ir.Codec.bits_needed 0);
  check int_ "bits_needed 1" 1 (Ir.Codec.bits_needed 1);
  check int_ "bits_needed 255" 8 (Ir.Codec.bits_needed 255);
  check int_ "bits_needed 256" 9 (Ir.Codec.bits_needed 256);
  check int_ "bits_needed max_int" 62 (Ir.Codec.bits_needed max_int)

let test_packed_degenerate_blocks () =
  let bs = Ir.Postings.block_size in
  (* one document, one node, consecutive positions: the doc and node
     delta streams pack to width 0 across block boundaries *)
  let flat = List.init ((3 * bs) + 5) (fun i -> occ 7 3 (i + 1)) in
  let p = Ir.Postings.of_list flat in
  check bool_ "width-0 streams roundtrip" true (Ir.Postings.to_list p = flat);
  check bool_ "width-0 serialize roundtrip" true
    (Ir.Postings.to_list
       (Ir.Postings.deserialize ~count:(List.length flat)
          (Ir.Postings.serialize p))
    = flat);
  (* near-max deltas force the widest fields the codec supports *)
  let huge =
    [
      occ 0 0 1;
      occ 0 ((1 lsl 60) - 1) ((1 lsl 61) + 5);
      occ ((1 lsl 45) + 3) 17 ((1 lsl 59) - 1);
    ]
  in
  let p = Ir.Postings.of_list huge in
  check bool_ "max-width roundtrip" true (Ir.Postings.to_list p = huge);
  check bool_ "max-width serialize roundtrip" true
    (Ir.Postings.to_list
       (Ir.Postings.deserialize ~count:3 (Ir.Postings.serialize p))
    = huge)

let test_packed_decodes_from_bigarray =
  QCheck.Test.make ~name:"packed postings decode from a Bigarray map"
    ~count:100 (QCheck.make gen_seek_scenario) (fun (occs, ops) ->
      let p = Ir.Postings.of_list occs in
      let s = Ir.Postings.serialize p in
      let a =
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s)
      in
      String.iteri (fun i c -> Bigarray.Array1.set a i c) s;
      let mapped, consumed =
        Ir.Postings.deserialize_buf ~count:(List.length occs)
          (Ir.Codec.M a) 0
      in
      consumed = String.length s
      && Ir.Postings.to_list mapped = occs
      && cursor_run (Ir.Postings.cursor mapped) ops
         = cursor_run (Ir.Postings.cursor p) ops)

(* ------------------------------------------------------------------ *)
(* Inverted index *)

let build_index docs =
  let b = Ir.Inverted_index.builder () in
  List.iteri
    (fun doc text ->
      ignore (Ir.Inverted_index.index_text b ~doc ~node:0 ~start_pos:0 text))
    docs;
  Ir.Inverted_index.freeze b

let test_index_basic () =
  let idx = build_index [ "the cat sat"; "the dog and the cat" ] in
  check int_ "cf(the)" 3 (Ir.Inverted_index.collection_freq idx "the");
  check int_ "df(the)" 2 (Ir.Inverted_index.doc_freq idx "the");
  check int_ "cf(cat)" 2 (Ir.Inverted_index.collection_freq idx "cat");
  check int_ "cf(missing)" 0 (Ir.Inverted_index.collection_freq idx "zebra");
  check int_ "documents" 2 (Ir.Inverted_index.document_count idx)

let test_index_positions () =
  let idx = build_index [ "a b c b" ] in
  match Ir.Inverted_index.lookup idx "b" with
  | Some p ->
    check (Alcotest.list int_) "positions" [ 1; 3 ]
      (List.map (fun (o : Ir.Postings.occ) -> o.pos) (Ir.Postings.to_list p))
  | None -> Alcotest.fail "expected postings for b"

let test_index_case_insensitive () =
  let idx = build_index [ "Hello HELLO hello" ] in
  check int_ "case folded" 3 (Ir.Inverted_index.collection_freq idx "HeLLo")

let test_index_stemmed () =
  let b = Ir.Inverted_index.builder ~stem:true () in
  ignore
    (Ir.Inverted_index.index_text b ~doc:0 ~node:0 ~start_pos:0
       "engines engine engined");
  let idx = Ir.Inverted_index.freeze b in
  check int_ "stems conflated" 3 (Ir.Inverted_index.collection_freq idx "engine")

let test_index_terms_by_freq () =
  let idx = build_index [ "x x x y y z" ] in
  match Ir.Inverted_index.terms_by_freq idx with
  | (t1, f1) :: (t2, f2) :: _ ->
    check string_ "most frequent" "x" t1;
    check int_ "freq" 3 f1;
    check string_ "second" "y" t2;
    check int_ "freq2" 2 f2
  | _ -> Alcotest.fail "expected at least two terms"

let test_index_freq_matches_naive =
  QCheck.Test.make ~name:"collection_freq matches naive count" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) printable_string)
    (fun docs ->
      let idx = build_index docs in
      let all_terms = List.concat_map Ir.Tokenizer.terms docs in
      List.for_all
        (fun t ->
          Ir.Inverted_index.collection_freq idx t
          = List.length (List.filter (String.equal t) all_terms))
        all_terms)

(* ------------------------------------------------------------------ *)
(* Phrase *)

let test_phrase_count () =
  let terms = Ir.Phrase.parse "search engine" in
  check int_ "simple" 1 (Ir.Phrase.count ~terms "a search engine here");
  check int_ "stemmed plural" 1 (Ir.Phrase.count ~terms "many search engines");
  check int_ "two occurrences" 2
    (Ir.Phrase.count ~terms "search engine and search engine");
  check int_ "interrupted" 0 (Ir.Phrase.count ~terms "search the engine");
  check int_ "unstemmed plural" 0
    (Ir.Phrase.count ~stem:false ~terms "search engines")

let test_phrase_overlap () =
  check int_ "overlapping" 2
    (Ir.Phrase.count ~stem:false ~terms:[ "a"; "a" ] "a a a");
  check int_ "self-overlap pattern" 1
    (Ir.Phrase.count ~stem:false ~terms:[ "a"; "a"; "b" ] "a a a b")

let test_phrase_empty () =
  check int_ "empty phrase" 0 (Ir.Phrase.count ~terms:[] "anything");
  check int_ "empty text" 0 (Ir.Phrase.count ~terms:[ "x" ] "")

let test_phrase_single_term =
  QCheck.Test.make ~name:"single-term phrase = term count" ~count:200
    QCheck.printable_string (fun s ->
      let terms = Ir.Tokenizer.terms s in
      match terms with
      | [] -> true
      | t :: _ ->
        Ir.Phrase.count ~stem:false ~terms:[ t ] s
        = List.length (List.filter (String.equal t) terms))

(* ------------------------------------------------------------------ *)
(* Tfidf & Similarity *)

let test_tfidf_monotonic () =
  let w c = Ir.Tfidf.weight ~doc_count:1000 ~doc_freq:10 ~count:c in
  check bool_ "zero count" true (w 0 = 0.);
  check bool_ "monotone in count" true (w 2 > w 1);
  let idf_rare = Ir.Tfidf.idf ~doc_count:1000 ~doc_freq:1 in
  let idf_common = Ir.Tfidf.idf ~doc_count:1000 ~doc_freq:900 in
  check bool_ "rare terms weigh more" true (idf_rare > idf_common)

let test_tfidf_normalized () =
  let big =
    Ir.Tfidf.normalized_weight ~doc_count:100 ~doc_freq:5 ~count:2
      ~element_size:10000
  in
  let small =
    Ir.Tfidf.normalized_weight ~doc_count:100 ~doc_freq:5 ~count:2
      ~element_size:10
  in
  check bool_ "small elements score higher" true (small > big)

let test_count_same () =
  check int_ "shared terms" 2
    (Ir.Similarity.count_same "internet technologies rock"
       "internet and web technologies");
  check int_ "no overlap" 0 (Ir.Similarity.count_same "abc def" "ghi jkl")

let test_cosine () =
  check (Alcotest.float 1e-9) "identical" 1. (Ir.Similarity.cosine "a b c" "c b a");
  check (Alcotest.float 1e-9) "disjoint" 0. (Ir.Similarity.cosine "a b" "c d");
  let partial = Ir.Similarity.cosine "a b" "a c" in
  check bool_ "partial in (0,1)" true (partial > 0. && partial < 1.)

let test_jaccard () =
  check (Alcotest.float 1e-9) "identical" 1. (Ir.Similarity.jaccard "a b" "b a");
  check (Alcotest.float 1e-9) "empty" 0. (Ir.Similarity.jaccard "" "");
  check (Alcotest.float 1e-9) "third" (1. /. 3.) (Ir.Similarity.jaccard "a b" "a c")

let test_cosine_bounds =
  QCheck.Test.make ~name:"cosine within [0,1]" ~count:300
    QCheck.(pair printable_string printable_string)
    (fun (a, b) ->
      let c = Ir.Similarity.cosine a b in
      c >= 0. && c <= 1.0000001)

let test_stopwords () =
  check bool_ "the" true (Ir.Stopwords.is_stopword "the");
  check bool_ "internet" false (Ir.Stopwords.is_stopword "internet");
  check bool_ "list non-empty" true (List.length Ir.Stopwords.all > 50)


let test_bm25_properties () =
  let score c =
    Ir.Bm25.score ~doc_count:1000 ~doc_freq:10 ~count:c ~element_size:100
      ~avg_size:100. ()
  in
  check bool_ "zero count" true (score 0 = 0.);
  check bool_ "monotone" true (score 2 > score 1);
  (* saturation: the marginal gain of extra occurrences shrinks *)
  check bool_ "saturating" true (score 2 -. score 1 > score 10 -. score 9);
  (* length normalization: same counts in a longer element score less *)
  let long =
    Ir.Bm25.score ~doc_count:1000 ~doc_freq:10 ~count:2 ~element_size:1000
      ~avg_size:100. ()
  in
  check bool_ "length-normalized" true (score 2 > long);
  (* idf: rarer terms weigh more *)
  check bool_ "idf decreasing" true
    (Ir.Bm25.idf ~doc_count:1000 ~doc_freq:1
    > Ir.Bm25.idf ~doc_count:1000 ~doc_freq:500)

let test_bm25_nonnegative =
  QCheck.Test.make ~name:"bm25 non-negative" ~count:300
    QCheck.(quad (int_range 1 10000) (int_range 0 10000) (int_range 0 50) (int_range 1 500))
    (fun (n, df, c, size) ->
      let df = min df n in
      Ir.Bm25.score ~doc_count:n ~doc_freq:df ~count:c ~element_size:size
        ~avg_size:80. ()
      >= 0.)


let test_index_save_load () =
  let idx = build_index [ "alpha beta beta"; "beta gamma" ] in
  let buf = Buffer.create 256 in
  Ir.Inverted_index.save idx buf;
  let loaded, off = Ir.Inverted_index.load (Buffer.to_bytes buf) 0 in
  check int_ "consumed all" (Buffer.length buf) off;
  List.iter
    (fun term ->
      check int_
        (Printf.sprintf "cf(%s)" term)
        (Ir.Inverted_index.collection_freq idx term)
        (Ir.Inverted_index.collection_freq loaded term);
      check int_
        (Printf.sprintf "df(%s)" term)
        (Ir.Inverted_index.doc_freq idx term)
        (Ir.Inverted_index.doc_freq loaded term))
    [ "alpha"; "beta"; "gamma"; "missing" ];
  (* postings identical *)
  let dump i term =
    match Ir.Inverted_index.lookup i term with
    | Some p -> Ir.Postings.to_list p
    | None -> []
  in
  check bool_ "postings equal" true (dump idx "beta" = dump loaded "beta")

let test_index_load_buf_lazy () =
  (* load_buf maps the dictionary lazily over the image buffer; every
     query-visible reading must equal the eager loader's *)
  let idx = build_index [ "alpha beta beta"; "beta gamma delta" ] in
  let buf = Buffer.create 256 in
  Ir.Inverted_index.save idx buf;
  let bytes = Buffer.to_bytes buf in
  let lazy_idx, off_lazy =
    Ir.Inverted_index.load_buf (Ir.Codec.buf_of_bytes bytes) 0
  in
  check int_ "consumed all" (Buffer.length buf) off_lazy;
  check bool_ "dictionary is mapped" true
    (Ir.Dictionary.is_mapped (Ir.Inverted_index.dictionary lazy_idx));
  check bool_ "builder dictionary is in-memory" false
    (Ir.Dictionary.is_mapped (Ir.Inverted_index.dictionary idx));
  let eager = idx in
  let dump i term =
    match Ir.Inverted_index.lookup i term with
    | Some p -> Ir.Postings.to_list p
    | None -> []
  in
  List.iter
    (fun term ->
      check int_
        (Printf.sprintf "cf(%s)" term)
        (Ir.Inverted_index.collection_freq eager term)
        (Ir.Inverted_index.collection_freq lazy_idx term);
      check int_
        (Printf.sprintf "df(%s)" term)
        (Ir.Inverted_index.doc_freq eager term)
        (Ir.Inverted_index.doc_freq lazy_idx term);
      check bool_
        (Printf.sprintf "postings(%s)" term)
        true
        (dump eager term = dump lazy_idx term))
    [ "alpha"; "beta"; "gamma"; "delta"; "missing" ];
  check bool_ "terms_by_freq equal" true
    (Ir.Inverted_index.terms_by_freq eager
    = Ir.Inverted_index.terms_by_freq lazy_idx)

let test_mapped_dictionary () =
  (* a mapped dictionary materializes terms from the buffer on demand
     and is read-only *)
  let body = "abcd" in
  let d =
    Ir.Dictionary.of_mapped
      (Ir.Codec.buf_of_bytes (Bytes.of_string body))
      ~offs:[| 0; 2 |] ~lens:[| 2; 2 |]
  in
  check bool_ "is_mapped" true (Ir.Dictionary.is_mapped d);
  check int_ "size" 2 (Ir.Dictionary.size d);
  check bool_ "find ab" true (Ir.Dictionary.find d "ab" = Some 0);
  check bool_ "find cd" true (Ir.Dictionary.find d "cd" = Some 1);
  check bool_ "find missing" true (Ir.Dictionary.find d "zz" = None);
  check string_ "term 1" "cd" (Ir.Dictionary.term d 1);
  (* concurrent first access races benignly: every domain reads the
     same table *)
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Ir.Dictionary.find d "ab" = Some 0
            && Ir.Dictionary.find d "cd" = Some 1))
  in
  check bool_ "concurrent finds agree" true
    (List.for_all Domain.join domains);
  match Ir.Dictionary.intern d "new" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "intern on a mapped dictionary must raise"

let test_index_save_load_property =
  QCheck.Test.make ~name:"index save/load roundtrip (random)" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 4) printable_string)
    (fun docs ->
      let idx = build_index docs in
      let buf = Buffer.create 256 in
      Ir.Inverted_index.save idx buf;
      let loaded, _ = Ir.Inverted_index.load (Buffer.to_bytes buf) 0 in
      let terms = List.concat_map Ir.Tokenizer.terms docs in
      List.for_all
        (fun t ->
          Ir.Inverted_index.collection_freq idx t
          = Ir.Inverted_index.collection_freq loaded t)
        terms)

(* ------------------------------------------------------------------ *)
(* Collection statistics and the planner feedback table *)

let small_stats () =
  (* two documents of shape article(title, sec(p, p)); tag ids:
     article=0 title=1 sec=2 p=3 *)
  let b =
    Ir.Stats.builder ~documents:2 ~occurrences:40 ~distinct_terms:7
      ~tag_count:4 ()
  in
  for _ = 1 to 2 do
    Ir.Stats.add_element b ~tag:0 ~level:0;
    Ir.Stats.add_element b ~tag:1 ~level:1;
    Ir.Stats.add_element b ~tag:2 ~level:1;
    Ir.Stats.add_element b ~tag:3 ~level:2;
    Ir.Stats.add_element b ~tag:3 ~level:2
  done;
  Ir.Stats.freeze b

let test_stats_estimators () =
  let s = small_stats () in
  check int_ "elements" 10 s.Ir.Stats.elements;
  check int_ "tag_count p" 4 (Ir.Stats.tag_count s ~tag:3);
  check int_ "tag_count unknown" 0 (Ir.Stats.tag_count s ~tag:9);
  check bool_ "avg_depth" true (abs_float (Ir.Stats.avg_depth s -. 2.2) < 1e-9);
  check bool_ "article subtree is everything" true
    (Ir.Stats.subtree_fraction s ~tag:0 = 1.0);
  (* each sec subtree holds sec + 2 p: 6 of 10 elements *)
  check bool_ "sec subtree fraction" true
    (abs_float (Ir.Stats.subtree_fraction s ~tag:2 -. 0.6) < 1e-9);
  check bool_ "synopsis complete" true s.Ir.Stats.synopsis_complete

let test_stats_roundtrip () =
  let s = small_stats () in
  let buf = Buffer.create 64 in
  Ir.Stats.save s buf;
  let loaded, off =
    Ir.Stats.load_buf (Ir.Codec.buf_of_bytes (Buffer.to_bytes buf)) 0
  in
  check int_ "consumed all" (Buffer.length buf) off;
  check bool_ "roundtrip equal" true (loaded = s)

let test_stats_truncation () =
  let b =
    Ir.Stats.builder ~max_nodes:2 ~documents:1 ~occurrences:0 ~distinct_terms:0
      ~tag_count:4 ()
  in
  Ir.Stats.add_element b ~tag:0 ~level:0;
  Ir.Stats.add_element b ~tag:1 ~level:1;
  Ir.Stats.add_element b ~tag:2 ~level:1;
  (* over budget *)
  Ir.Stats.add_element b ~tag:3 ~level:2;
  (* below a truncation point *)
  let s = Ir.Stats.freeze b in
  check bool_ "truncated" false s.Ir.Stats.synopsis_complete;
  check int_ "node budget held" 2 s.Ir.Stats.synopsis_nodes;
  check int_ "tag_counts stay exact" 1 (Ir.Stats.tag_count s ~tag:2)

let test_feedback () =
  let f = Ir.Stats.Feedback.create () in
  check int_ "generation starts 0" 0 (Ir.Stats.Feedback.generation f);
  check bool_ "default correction" true
    (Ir.Stats.Feedback.correction f ~key:"q" = 1.0);
  Ir.Stats.Feedback.observe f ~key:"q" ~est:100. ~actual:1000.;
  check bool_ "correction learned" true
    (Ir.Stats.Feedback.correction f ~key:"q" = 10.0);
  check int_ "first observation sets baseline without a bump" 0
    (Ir.Stats.Feedback.generation f);
  Ir.Stats.Feedback.observe f ~key:"q" ~est:100. ~actual:100.;
  (* EWMA halves toward the new ratio; 5.5 is within a factor 2 of 10 *)
  check bool_ "ewma" true
    (abs_float (Ir.Stats.Feedback.correction f ~key:"q" -. 5.5) < 1e-9);
  check int_ "non-material move keeps generation" 0
    (Ir.Stats.Feedback.generation f);
  (* a big upward move against the established baseline is material *)
  Ir.Stats.Feedback.observe f ~key:"q" ~est:10. ~actual:3000.;
  check int_ "material move bumps generation" 1
    (Ir.Stats.Feedback.generation f);
  Ir.Stats.Feedback.observe f ~key:"r" ~est:1. ~actual:1e9;
  check bool_ "clamped" true (Ir.Stats.Feedback.correction f ~key:"r" = 64.0);
  check int_ "observations" 4 (Ir.Stats.Feedback.observations f)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "ir"
    [
      ( "tokenizer",
        [
          tc "basic" `Quick test_tokenizer_basic;
          tc "start pos" `Quick test_tokenizer_start_pos;
          tc "empty" `Quick test_tokenizer_empty;
          QCheck_alcotest.to_alcotest test_tokenizer_count_matches;
        ] );
      ( "stemmer",
        [
          tc "porter vectors" `Quick test_stemmer_vectors;
          tc "short words" `Quick test_stemmer_short;
          QCheck_alcotest.to_alcotest test_stemmer_total;
        ] );
      ( "codec",
        [
          tc "sequence" `Quick test_varint_sequence;
          tc "truncated input" `Quick test_codec_truncated;
          QCheck_alcotest.to_alcotest test_varint_roundtrip;
          QCheck_alcotest.to_alcotest test_zigzag_roundtrip;
        ] );
      ( "postings",
        [
          tc "roundtrip" `Quick test_postings_roundtrip;
          tc "order check" `Quick test_postings_order_check;
          tc "cursor reset" `Quick test_postings_cursor_reset;
          QCheck_alcotest.to_alcotest test_postings_property;
          tc "seek edges" `Quick test_seek_empty_and_edges;
          tc "max_tf" `Quick test_postings_max_tf;
          QCheck_alcotest.to_alcotest test_seek_matches_next_oracle;
          QCheck_alcotest.to_alcotest test_seek_survives_serialization;
          QCheck_alcotest.to_alcotest test_seek_doc_is_seek_pos_zero;
        ] );
      ( "packed codec",
        [
          tc "pack_bits edges" `Quick test_pack_bits_edges;
          tc "degenerate blocks" `Quick test_packed_degenerate_blocks;
          QCheck_alcotest.to_alcotest test_pack_bits_roundtrip;
          QCheck_alcotest.to_alcotest test_packed_decodes_from_bigarray;
        ] );
      ( "inverted index",
        [
          tc "basic" `Quick test_index_basic;
          tc "positions" `Quick test_index_positions;
          tc "case insensitive" `Quick test_index_case_insensitive;
          tc "stemmed" `Quick test_index_stemmed;
          tc "terms by freq" `Quick test_index_terms_by_freq;
          QCheck_alcotest.to_alcotest test_index_freq_matches_naive;
          tc "save/load" `Quick test_index_save_load;
          tc "lazy load_buf" `Quick test_index_load_buf_lazy;
          tc "mapped dictionary" `Quick test_mapped_dictionary;
          QCheck_alcotest.to_alcotest test_index_save_load_property;
        ] );
      ( "stats",
        [
          tc "estimators" `Quick test_stats_estimators;
          tc "roundtrip" `Quick test_stats_roundtrip;
          tc "synopsis truncation" `Quick test_stats_truncation;
          tc "feedback corrections" `Quick test_feedback;
        ] );
      ( "phrase",
        [
          tc "count" `Quick test_phrase_count;
          tc "overlap" `Quick test_phrase_overlap;
          tc "empty" `Quick test_phrase_empty;
          QCheck_alcotest.to_alcotest test_phrase_single_term;
        ] );
      ( "scoring",
        [
          tc "tfidf monotonic" `Quick test_tfidf_monotonic;
          tc "bm25 properties" `Quick test_bm25_properties;
          QCheck_alcotest.to_alcotest test_bm25_nonnegative;
          tc "tfidf normalized" `Quick test_tfidf_normalized;
          tc "count_same" `Quick test_count_same;
          tc "cosine" `Quick test_cosine;
          tc "jaccard" `Quick test_jaccard;
          tc "stopwords" `Quick test_stopwords;
          QCheck_alcotest.to_alcotest test_cosine_bounds;
        ] );
    ]

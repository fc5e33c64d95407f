(* Mutation fuzzing of the parsers that read untrusted input: wire
   lines (JSON and the request protocol on top of it), query text and
   XML documents. Each property starts from seeded valid inputs,
   applies random byte insertions, deletions and replacements, and
   requires the parser to answer [Ok] or [Error] — never to raise.
   Query text also checks the normalization behind the plan and
   result cache keys.

   The properties carry a [~long_factor]: [QCHECK_LONG=1] multiplies
   their case counts for a soak run. *)

let long_factor = 1000

(* ------------------------------------------------------------------ *)
(* Seeds *)

let json_seeds =
  [
    {|{"op":"health"}|};
    {|{"op":"stats"}|};
    {|{"op":"search","terms":["svplantone","b\u00e9ta"],"method":"enhanced","complex":true,"anchor":"section","k":5,"trace":true}|};
    {|{"op":"phrase","phrase":"search engine","comp3":false,"k":3,"timeout":1.5}|};
    {|{"op":"ranked","terms":["a","b"],"k":10,"theta":0.25,"parallelism":2}|};
    {|{"op":"query","q":"for $a in document(\"*\")//article score $a using ScoreFoo($a, {\"x\"}, {}) return <r>{$a}</r>","mode":"engine","max_steps":1000,"max_results":50}|};
    {|{"op":"explain","q":"for $s in document(\"*\")//section return <r>{$s}</r>"}|};
    {|{"op":"prepare","q":"for $s in document(\"*\")//p return <r>{$s}</r>"}|};
    {|{"op":"execute","id":3,"k":7}|};
    {|{"op":"insert","name":"d.xml","xml":"<a>caf\u00e9 \ud83d\ude00 \"q\"\\\/\b\f\n\r\t</a>"}|};
    {|{"op":"update","name":"d.xml","xml":"<a/>"}|};
    {|{"op":"delete","name":"d.xml"}|};
    {|{"op":"checkpoint","wait":false}|};
    {| [ [1, [2.5e-3, {"a" : null}]], true, false, -0, "A" ] |};
  ]

let query_seeds =
  [
    {|for $a in document("articles.xml")//article/descendant-or-self::*
score $a using ScoreFoo($a, {"search engine"},
                        {"internet", "information retrieval"})
pick $a using PickFoo()
return <result><score>{$a/@score}</score>{$a}</result>
sortby(score)
threshold $a/@score > 4 stop after 5|};
    {|for $a in document("articles.xml")//article[author/sname = "Doe"]
for $b in document("review-*.xml")//review
let $sim := ScoreSim($a/article-title/text(), $b/title/text())
where $sim > 1 and count({'search engine'}, $a) > 0 or 1 >= 0
return <pair id={$b/@id} kind="review">{$a/@id}<t>{$sim}</t> 3.5</pair>|};
    {|for $r in document("review-*.xml")//review[reviewer/sname][title/text() != 'say "WWW"']
let $x := 1
let $x := 2
where $x <= 2
return <r>{$r/rating/text()}</r>|};
    {|for $c in document("*")//author/*  return  <r>{$c}</r>|};
  ]

let xml_seeds =
  Xmlkit.Printer.to_string Workload.Paper_db.articles
  :: List.map Xmlkit.Printer.to_string Workload.Paper_db.reviews
  @ [
      {|<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE doc [ <!ENTITY co "company"> <!ELEMENT doc ANY> ]>
<!-- a comment -->
<doc a='1' b="x &amp; y"><p>caf&#233; &#x41; &lt;&gt; &co;</p><![CDATA[ <raw> & ]]><e/></doc>|};
    ]

(* ------------------------------------------------------------------ *)
(* Mutations *)

(* Half the new bytes are ones the grammars give meaning to, so edits
   land near the valid language instead of only breaking the first
   token. *)
let meaningful = "{}[]\":,\\/u0129afAF-+.eE \t\n\r<>=&;#x'!?$()*@"

let gen_byte =
  QCheck.Gen.(
    frequency
      [
        (1, char);
        (1, map (String.get meaningful) (int_bound (String.length meaningful - 1)));
      ])

let mutate seed edits =
  List.fold_left
    (fun s (kind, at, c) ->
      let n = String.length s in
      match kind with
      | 0 ->
        let i = at mod (n + 1) in
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | 1 when n > 0 ->
        let i = at mod n in
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ when n > 0 ->
        let i = at mod n in
        String.mapi (fun j x -> if j = i then c else x) s
      | _ -> s)
    seed edits

let mutants seeds =
  let gen =
    QCheck.Gen.(
      oneofl seeds >>= fun seed ->
      list_size (1 -- 8) (triple (int_bound 2) (int_bound 100_000) gen_byte)
      >|= mutate seed)
  in
  QCheck.make ~print:(Printf.sprintf "%S") ~shrink:QCheck.Shrink.string gen

let never_raises ~name ~count seeds parse =
  QCheck.Test.make ~name ~count ~long_factor (mutants seeds) (fun s ->
      match parse s with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_json =
  never_raises ~name:"Json.parse never raises" ~count:2000 json_seeds
    Service.Json.parse

let test_protocol =
  never_raises ~name:"Protocol.parse_request never raises" ~count:2000
    json_seeds Service.Protocol.parse_request

let test_query =
  never_raises ~name:"Query.Parser.parse never raises" ~count:2000 query_seeds
    Query.Parser.parse

let test_xml =
  never_raises ~name:"Xmlkit.Parser.parse_string never raises" ~count:500
    xml_seeds Xmlkit.Parser.parse_string

(* The whitespace/quote normalization behind [Engine.canonical_key]:
   applying it twice changes nothing, and the normalized text parses
   to the same AST as the original (or fails as the original does). *)
let normalize q =
  let key =
    Service.Engine.canonical_key (Service.Engine.Query { q; mode = `Engine })
  in
  let prefix = "query|engine|" in
  let p = String.length prefix in
  assert (String.sub key 0 p = prefix);
  String.sub key p (String.length key - p)

let test_query_normalization =
  QCheck.Test.make ~name:"query key normalization idempotent, same AST"
    ~count:2000 ~long_factor (mutants query_seeds) (fun q ->
      let n = normalize q in
      String.equal (normalize n) n
      &&
      match (Query.Parser.parse q, Query.Parser.parse n) with
      | Ok a, Ok b -> a = b
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

(* the properties mean something only if their seeds are valid *)
let test_seeds_parse () =
  let ok what = function
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "%s seed does not parse" what
  in
  List.iter (fun s -> ok "json" (Service.Json.parse s)) json_seeds;
  List.iter
    (fun s -> ok "request" (Service.Protocol.parse_request s))
    (List.filter (fun s -> s.[0] = '{') json_seeds);
  List.iter (fun s -> ok "query" (Query.Parser.parse s)) query_seeds;
  List.iter (fun s -> ok "xml" (Xmlkit.Parser.parse_string s)) xml_seeds

let () =
  Alcotest.run "parsers"
    [
      ("seeds", [ Alcotest.test_case "seeds parse" `Quick test_seeds_parse ]);
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ test_json; test_protocol; test_query; test_query_normalization; test_xml ]
      );
    ]

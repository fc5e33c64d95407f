(* tixdb: command-line front end to the TIX structured-text database.

   Subcommands:
     query   load XML documents and evaluate an extended-XQuery query
     search  score elements for query terms with a chosen access method
     phrase  find a phrase with PhraseFinder or Comp3
     stats   load documents and print database statistics
     gen     write a synthetic INEX-like corpus to a directory
     build   build a persistent database image from XML files
     client  talk to a running tixd server (NDJSON over TCP)
     ingest  insert/replace documents in a running updatable tixd
     rm      delete documents from a running updatable tixd
     demo    run the paper's Query 1 against the built-in Figure 1 data
*)

open Cmdliner

let () = Front.init_logs ()

let paths_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "XML documents to load, or a single saved database image \
           (*.tix).")

let skip_bad_arg =
  Arg.(
    value & flag
    & info [ "skip-bad" ]
        ~doc:
          "Skip documents that fail to parse or ingest, reporting each \
           failure on stderr, instead of aborting the whole load.")

(* --timeout/--max-steps/--max-results assemble per-query governor
   limits; breaches surface as a typed resource-exhausted error. *)
let limits_term =
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock deadline for the query.")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Evaluation step budget for the query.")
  in
  let max_results_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-results" ] ~docv:"N"
          ~doc:"Cap on intermediate/final result cardinality.")
  in
  let mk timeout_s max_steps max_results =
    Core.Governor.limits ?max_steps ?timeout_s ?max_results ()
  in
  Term.(const mk $ timeout_arg $ max_steps_arg $ max_results_arg)

let parallel_arg =
  Arg.(
    value & opt int 1
    & info [ "parallel" ] ~docv:"N"
        ~doc:
          "Partition the posting lists into document ranges and run the \
           access method across up to N domains (results are identical to \
           sequential execution). 1 disables it.")

(* query, search and phrase run their request through Service.Engine,
   the entry point tixd serves, against a snapshot of the loaded
   corpus *)
let snapshot ~skip_bad paths =
  match Service.Engine.of_db (Front.load_files ~skip_bad paths) with
  | Ok s -> s
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

let fail e =
  Format.eprintf "error: %s@." (Service.Engine.error_message e);
  exit 1

let exec ?k ~limits ~trace ~parallel snapshot request =
  match
    Service.Engine.exec ?k ~limits ~trace ~parallelism:parallel snapshot
      request
  with
  | Ok r -> r
  | Error e -> fail e

let execute_ms (r : Service.Engine.result) =
  1000. *. Option.value ~default:0. (List.assoc_opt "execute" r.timings)

let print_trace (r : Service.Engine.result) =
  Option.iter
    (fun sp -> Format.printf "@.%s@." (Core.Trace.span_to_string sp))
    r.trace

let print_json json = print_endline (Service.Json.to_string json)

(* ------------------------------------------------------------------ *)
(* query *)

let format_conv = Arg.enum [ ("text", `Text); ("json", `Json) ]

let query_cmd =
  let run paths q engine explain trace format skip_bad limits =
    let snapshot = snapshot ~skip_bad paths in
    (* --explain stops at the plan unless --trace (in text output, also
       --engine) asks for EXPLAIN ANALYZE; the plan is costed against
       the loaded database's statistics *)
    if explain && (not trace) && (format = `Json || not engine) then begin
      match format, Service.Engine.explain ~snapshot q with
      | `Json, Ok plan -> print_json (Service.Protocol.ok_plan_to_json plan)
      | `Text, Ok plan -> Format.printf "%s@.@." plan
      | `Json, Error e ->
        print_json (Service.Protocol.engine_error_to_json e);
        exit 1
      | `Text, Error e -> fail e
    end
    else begin
      (* text output interprets unless asked to compile; JSON output
         compiles when it can, as tixd does *)
      let mode =
        if engine || explain then `Engine
        else if format = `Json then `Auto
        else `Interp
      in
      let request = Service.Engine.Query { q; mode } in
      match format, Service.Engine.exec ~limits ~trace snapshot request with
      | `Json, Ok r -> print_json (Service.Protocol.result_to_json r)
      | `Json, Error e ->
        print_json (Service.Protocol.engine_error_to_json e);
        exit 1
      | `Text, Error e -> fail e
      | `Text, Ok r ->
        Option.iter (Format.printf "%s@.@.") r.plan;
        List.iter
          (fun (row : Service.Engine.row) ->
            Format.printf "%-14s doc=%d start=%d score=%.3f@." row.tag row.doc
              row.start row.score)
          r.rows;
        List.iter print_string r.trees;
        Format.printf "(%d results)@." r.total;
        print_trace r
    end
  in
  let query_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:"Extended-XQuery text (Score/Pick/Threshold clauses).")
  in
  let engine_arg =
    Arg.(
      value & flag
      & info [ "engine" ]
          ~doc:
            "Compile onto the store-level access methods (structural joins + \
             TermJoin + stack Pick) instead of interpreting.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the compiled physical plan without executing (combine \
             with $(b,--trace) for EXPLAIN ANALYZE). Fails when the query \
             is outside the compilable fragment.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Execute with per-operator tracing and print the span tree: \
             input/output cardinalities, governor steps and elapsed time \
             for every operator.")
  in
  let format_arg =
    Arg.(
      value & opt format_conv `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: text, or json (one response object with results, \
             scores and timings — the same encoding tixd serves).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an extended-XQuery query")
    Term.(
      const run $ paths_arg $ query_arg $ engine_arg $ explain_arg $ trace_arg
      $ format_arg $ skip_bad_arg $ limits_term)

(* ------------------------------------------------------------------ *)
(* search *)

let method_conv =
  Arg.enum
    (List.map
       (fun m -> (Service.Engine.search_method_to_string m, m))
       Service.Engine.[ Termjoin; Enhanced; Genmeet; Comp1; Comp2; Auto ])

(* A row's keyword-in-context snippet, read from its subtree *)
let snippet (snapshot : Service.Engine.snapshot) ~terms
    (row : Service.Engine.row) =
  match
    Access.Ctx.node_entry snapshot.ctx ~nav:Access.Ctx.Parent_index
      ~doc:row.doc ~start:row.start
  with
  | None -> ""
  | Some e ->
    Access.Snippet.of_node ~width:16 snapshot.ctx ~terms
      {
        doc = row.doc;
        start = row.start;
        end_ = e.end_;
        level = e.level;
        tag = e.tag;
        score = row.score;
      }

let search_cmd =
  let run paths terms method_ complex top trace parallel skip_bad limits =
    let snapshot = snapshot ~skip_bad paths in
    let terms = String.split_on_char ',' terms |> List.map String.trim in
    let r =
      exec ~k:(max 0 top) ~limits ~trace ~parallel snapshot
        (Service.Engine.Search { terms; method_; complex; anchor = None })
    in
    (* the planner's decision, for --method auto *)
    Option.iter print_endline r.plan;
    List.iteri
      (fun i (row : Service.Engine.row) ->
        Format.printf "%2d. %-14s doc=%d start=%d score=%.3f@." (i + 1) row.tag
          row.doc row.start row.score;
        let snippet = snippet snapshot ~terms row in
        if snippet <> "" then Format.printf "     %s@." snippet)
      r.rows;
    Format.printf "(%d scored elements in %.1f ms)@." r.total (execute_ms r);
    print_trace r
  in
  let terms_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "t"; "terms" ] ~docv:"TERMS" ~doc:"Comma-separated query terms.")
  in
  let method_arg =
    Arg.(
      value & opt method_conv Service.Engine.Termjoin
      & info [ "m"; "method" ] ~docv:"METHOD"
          ~doc:
            "Access method: termjoin, enhanced, genmeet, comp1, comp2, or \
             auto (cost-based choice from collection statistics).")
  in
  let complex_arg =
    Arg.(
      value & flag
      & info [ "complex" ] ~doc:"Use the complex scoring function (Sec. 6.1).")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "k"; "top" ] ~docv:"K" ~doc:"Rows to print.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print the access method's span tree.")
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Score elements for query terms")
    Term.(
      const run $ paths_arg $ terms_arg $ method_arg $ complex_arg $ top_arg
      $ trace_arg $ parallel_arg $ skip_bad_arg $ limits_term)

(* ------------------------------------------------------------------ *)
(* phrase *)

let phrase_cmd =
  let run paths phrase comp3 trace parallel skip_bad limits =
    let snapshot = snapshot ~skip_bad paths in
    let r =
      exec ~limits ~trace ~parallel snapshot
        (Service.Engine.Phrase { phrase; comp3 })
    in
    (* the engine ranks by occurrence count; print in document order *)
    List.iter
      (fun (row : Service.Engine.row) ->
        Format.printf "%-14s doc=%d start=%d occurrences=%.0f@." row.tag row.doc
          row.start row.score)
      (List.sort
         (fun (a : Service.Engine.row) b ->
           compare (a.doc, a.start) (b.doc, b.start))
         r.rows);
    Format.printf "(%d elements in %.1f ms)@." r.total (execute_ms r);
    print_trace r
  in
  let phrase_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "phrase" ] ~docv:"PHRASE" ~doc:"The phrase to find.")
  in
  let comp3_arg =
    Arg.(
      value & flag
      & info [ "comp3" ] ~doc:"Use the composite baseline instead of PhraseFinder.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print the access method's span tree.")
  in
  Cmd.v
    (Cmd.info "phrase" ~doc:"Find a phrase with PhraseFinder")
    Term.(
      const run $ paths_arg $ phrase_arg $ comp3_arg $ trace_arg
      $ parallel_arg $ skip_bad_arg $ limits_term)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let run paths top skip_bad =
    let db = Front.load_files ~skip_bad paths in
    Format.printf "%a@." Store.Db.pp_stats (Store.Db.stats db);
    let terms = Ir.Inverted_index.terms_by_freq (Store.Db.index db) in
    Format.printf "@.top %d terms by collection frequency:@." top;
    List.iteri
      (fun i (term, freq) ->
        if i < top then Format.printf "  %-20s %d@." term freq)
      terms
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "k"; "top" ] ~docv:"K" ~doc:"Terms to print.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print database statistics")
    Term.(const run $ paths_arg $ top_arg $ skip_bad_arg)

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let run articles seed out =
    let cfg = { Workload.Corpus.default with articles; seed } in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    Seq.iter
      (fun (name, root) ->
        let oc = open_out (Filename.concat out name) in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Xmlkit.Printer.to_channel oc root))
      (Workload.Corpus.generate cfg);
    Format.printf "wrote %d articles to %s/@." articles out
  in
  let articles_arg =
    Arg.(value & opt int 100 & info [ "n"; "articles" ] ~docv:"N" ~doc:"Articles.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic INEX-like corpus")
    Term.(const run $ articles_arg $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* build *)

let build_cmd =
  let run paths out skip_bad =
    let db = Front.load_files ~skip_bad paths in
    Store.Db.save db out;
    let size = (Unix.stat out).Unix.st_size in
    Format.printf "wrote %s (%d bytes): %a@." out size Store.Db.pp_stats
      (Store.Db.stats db)
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output database image (*.tix).")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a persistent database image from XML files")
    Term.(const run $ paths_arg $ out_arg $ skip_bad_arg)

(* ------------------------------------------------------------------ *)
(* client *)

let resolve_addr host port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> begin
    match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | { Unix.ai_addr; _ } :: _ -> ai_addr
    | [] ->
      Format.eprintf "error: cannot resolve host %s@." host;
      exit 1
  end

(* One request, one response line: connect, send, read, close. *)
let round_trip ~host ~port line =
  let addr = resolve_addr host port in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect sock addr with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "error: cannot connect to %s:%d: %s@." host port
      (Unix.error_message e);
    exit 1);
  let oc = Unix.out_channel_of_descr sock in
  let ic = Unix.in_channel_of_descr sock in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let resp =
    match input_line ic with
    | line -> line
    | exception End_of_file ->
      Format.eprintf "error: server closed the connection@.";
      exit 1
  in
  (try Unix.close sock with Unix.Unix_error _ -> ());
  resp

let print_response ~pretty resp =
  if not pretty then print_endline resp
  else begin
    match Service.Json.parse resp with
    | Error e ->
      Format.eprintf "error: unparseable response (%s): %s@." e resp;
      exit 1
    | Ok json -> begin
      match Service.Json.(Option.bind (member "ok" json) to_bool_opt) with
      | Some false ->
        let code, message =
          match Service.Json.member "error" json with
          | Some err ->
            ( Option.value ~default:"?"
                Service.Json.(Option.bind (member "code" err) to_string_opt),
              Option.value ~default:""
                Service.Json.(Option.bind (member "message" err) to_string_opt)
            )
          | None -> ("?", resp)
        in
        Format.eprintf "error [%s]: %s@." code message;
        exit 1
      | _ -> begin
        match Service.Protocol.result_of_json json with
        | Error _ -> print_endline resp
        | Ok r ->
          List.iteri
            (fun i (row : Service.Engine.row) ->
              Format.printf "%2d. %-14s doc=%d start=%d score=%.3f@." (i + 1)
                row.tag row.doc row.start row.score)
            r.rows;
          List.iter print_string r.trees;
          Format.printf "(%d results)@." r.total
      end
    end
  end

let client_cmd =
  let run host port query explain trace parallel search phrase ranked comp3
      method_ complex anchor do_stats do_health do_checkpoint no_wait prepare
      execute raw k pretty limits =
    let some_if cond v = if cond then Some v else None in
    let parallelism = if parallel > 1 then Some parallel else None in
    let requests =
      List.filter_map Fun.id
        [
          Option.map
            (fun q ->
              Service.Protocol.Exec
                { req = Service.Engine.Query { q; mode = `Auto }; k; limits;
                  trace; parallelism; theta = None })
            query;
          Option.map (fun q -> Service.Protocol.Explain { q }) explain;
          Option.map
            (fun terms ->
              let terms =
                String.split_on_char ',' terms |> List.map String.trim
              in
              Service.Protocol.Exec
                {
                  req = Service.Engine.Search { terms; method_; complex; anchor };
                  k;
                  limits;
                  trace;
                  parallelism;
                  theta = None;
                })
            search;
          Option.map
            (fun phrase ->
              Service.Protocol.Exec
                { req = Service.Engine.Phrase { phrase; comp3 }; k; limits;
                  trace; parallelism; theta = None })
            phrase;
          Option.map
            (fun terms ->
              let terms =
                String.split_on_char ',' terms |> List.map String.trim
              in
              Service.Protocol.Exec
                { req = Service.Engine.Ranked { terms }; k; limits; trace;
                  parallelism; theta = None })
            ranked;
          Option.map (fun q -> Service.Protocol.Prepare { q }) prepare;
          Option.map
            (fun id ->
              Service.Protocol.Execute { id; k; limits; trace; parallelism })
            execute;
          some_if do_checkpoint
            (Service.Protocol.Checkpoint { wait = not no_wait });
          some_if do_stats Service.Protocol.Stats;
          some_if do_health Service.Protocol.Health;
        ]
    in
    let lines =
      List.map
        (fun r -> Service.Json.to_string (Service.Protocol.request_to_json r))
        requests
      @ Option.to_list raw
    in
    match lines with
    | [] ->
      Format.eprintf
        "error: pick one of --query, --explain, --search, --phrase, \
         --ranked, --prepare, --execute, --checkpoint, --stats, --health or \
         --raw@.";
      exit 2
    | lines ->
      List.iter
        (fun line -> print_response ~pretty (round_trip ~host ~port line))
        lines
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port_arg =
    Arg.(
      value & opt int 7070 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let query_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Extended-XQuery text to run.")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"QUERY"
          ~doc:"Ask the server for the compiled plan without executing.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Request per-operator tracing: the response carries a \
             \"trace\" span tree (bypasses the server's result cache).")
  in
  let search_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "search" ] ~docv:"TERMS" ~doc:"Comma-separated search terms.")
  in
  let phrase_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "phrase" ] ~docv:"PHRASE" ~doc:"Phrase to find.")
  in
  let ranked_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ranked" ] ~docv:"TERMS"
          ~doc:"Comma-separated terms for document top-k retrieval.")
  in
  let comp3_arg =
    Arg.(
      value & flag
      & info [ "comp3" ] ~doc:"Phrase via the composite baseline.")
  in
  let method_arg =
    Arg.(
      value & opt method_conv Service.Engine.Termjoin
      & info [ "m"; "method" ] ~docv:"METHOD" ~doc:"Search access method.")
  in
  let complex_arg =
    Arg.(
      value & flag & info [ "complex" ] ~doc:"Complex scoring (Sec. 6.1).")
  in
  let anchor_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "anchor" ] ~docv:"TAG"
          ~doc:
            "Restrict --search scoring to elements inside (or being) an \
             element with this tag.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch server statistics.")
  in
  let health_arg =
    Arg.(value & flag & info [ "health" ] ~doc:"Health check.")
  in
  let checkpoint_arg =
    Arg.(
      value & flag
      & info [ "checkpoint" ]
          ~doc:
            "Ask the server to merge its delta into a fresh immutable image \
             and reset the WAL (requires tixd --wal-dir).")
  in
  let no_wait_arg =
    Arg.(
      value & flag
      & info [ "no-wait" ]
          ~doc:
            "With --checkpoint: request a background checkpoint and return \
             immediately instead of waiting for the merged image.")
  in
  let prepare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prepare" ] ~docv:"QUERY"
          ~doc:"Register a prepared statement; prints its id.")
  in
  let execute_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "execute" ] ~docv:"ID" ~doc:"Run a prepared statement.")
  in
  let raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON" ~doc:"Send one raw protocol line as-is.")
  in
  let k_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "k"; "top" ] ~docv:"K" ~doc:"Result rows to keep.")
  in
  let pretty_arg =
    Arg.(
      value & flag
      & info [ "pretty" ]
          ~doc:"Render rows as a table instead of raw JSON.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Talk to a running tixd server")
    Term.(
      const run $ host_arg $ port_arg $ query_arg $ explain_arg $ trace_arg
      $ parallel_arg $ search_arg $ phrase_arg $ ranked_arg $ comp3_arg
      $ method_arg $ complex_arg $ anchor_arg $ stats_arg $ health_arg
      $ checkpoint_arg $ no_wait_arg $ prepare_arg $ execute_arg $ raw_arg
      $ k_arg $ pretty_arg $ limits_term)

(* ------------------------------------------------------------------ *)
(* ingest / rm: live updates against a running tixd --wal-dir server *)

let server_host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let server_port_arg =
  Arg.(
    value & opt int 7070 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let read_document path =
  if path = "-" then In_channel.input_all stdin
  else begin
    let ic =
      match open_in_bin path with
      | ic -> ic
      | exception Sys_error msg ->
        Format.eprintf "error: %s@." msg;
        exit 1
    in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  end

let send_request ~host ~port req =
  let line = Service.Json.to_string (Service.Protocol.request_to_json req) in
  (* pretty-mode response handling: exits 1 on {"ok":false,...} *)
  print_response ~pretty:true (round_trip ~host ~port line)

let ingest_cmd =
  let run host port update name paths =
    (match name, paths with
    | Some _, _ :: _ :: _ ->
      Format.eprintf "error: --name needs exactly one FILE@.";
      exit 2
    | _ -> ());
    List.iter
      (fun path ->
        let xml = read_document path in
        let doc_name =
          match name with
          | Some n -> n
          | None ->
            if path = "-" then begin
              Format.eprintf "error: reading stdin requires --name@.";
              exit 2
            end
            else Filename.basename path
        in
        send_request ~host ~port
          (if update then Service.Protocol.UpdateDoc { name = doc_name; xml }
           else Service.Protocol.Insert { name = doc_name; xml }))
      paths
  in
  let update_arg =
    Arg.(
      value & flag
      & info [ "update" ]
          ~doc:"Replace an existing document instead of inserting a new one.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:
            "Document name to ingest under (default: the file's basename; \
             required when FILE is $(b,-), i.e. stdin).")
  in
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"XML documents to send; $(b,-) reads one document from stdin.")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Insert (or with --update, replace) XML documents in a running \
          updatable tixd; each acknowledged document is WAL-durable")
    Term.(
      const run $ server_host_arg $ server_port_arg $ update_arg $ name_arg
      $ files_arg)

let rm_cmd =
  let run host port names =
    List.iter
      (fun name ->
        send_request ~host ~port (Service.Protocol.Remove { name }))
      names
  in
  let names_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"NAME" ~doc:"Document names to delete.")
  in
  Cmd.v
    (Cmd.info "rm"
       ~doc:"Delete documents by name from a running updatable tixd")
    Term.(const run $ server_host_arg $ server_port_arg $ names_arg)

(* ------------------------------------------------------------------ *)
(* demo *)

let demo_cmd =
  let run () =
    let db = Store.Db.of_documents Workload.Paper_db.documents in
    let evaluator = Query.Eval.create db in
    let q =
      {|
      for $a in document("articles.xml")//article/descendant-or-self::*
      score $a using ScoreFoo($a, {"search engine"},
                              {"internet", "information retrieval"})
      pick $a using PickFoo()
      return <result><score>{$a/@score}</score>{$a}</result>
      sortby(score)
      threshold $a/@score > 0 stop after 5
      |}
    in
    match Query.Eval.run_string evaluator q with
    | Ok results ->
      List.iter
        (fun r -> print_string (Xmlkit.Printer.to_string ~indent:2 r))
        results
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's Query 1 on the Figure 1 database")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* shard *)

let shard_cmd =
  let run paths skip_bad shards out host port_base replicas =
    if shards < 1 then begin
      Format.eprintf "error: --shards must be at least 1@.";
      exit 1
    end;
    if replicas < 1 then begin
      Format.eprintf "error: --replicas must be at least 1@.";
      exit 1
    end;
    let db = Front.load_files ~skip_bad paths in
    let docs = Store.Catalog.document_count (Store.Db.catalog db) in
    if docs = 0 then begin
      Format.eprintf "error: corpus has no documents@.";
      exit 1
    end;
    if not (Sys.file_exists out) then Unix.mkdir out 0o755;
    (* each range becomes its own dense image: compact with every
       document outside [lo,hi) tombstoned renumbers the range from
       0, which is exactly the local id space the coordinator undoes
       with [lo + local] *)
    let shard_specs =
      List.mapi
        (fun i (lo, hi) ->
          let tombstones = Array.init docs (fun d -> d < lo || d >= hi) in
          let shard_db = Store.Db.compact ~base:db ~delta:None ~tombstones in
          let image = Printf.sprintf "shard-%d.tix" i in
          Store.Db.save shard_db (Filename.concat out image);
          let eps =
            List.init replicas (fun r ->
                {
                  Dist.Shard_map.host;
                  port = port_base + (i * replicas) + r;
                })
          in
          Format.printf "shard %d: docs [%d,%d) -> %s (%s)@." i lo hi image
            (String.concat ", "
               (List.map Dist.Shard_map.endpoint_to_string eps));
          { Dist.Shard_map.lo; hi; image; replicas = eps })
        (Dist.Shard_map.ranges ~docs ~shards)
    in
    match Dist.Shard_map.make shard_specs with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1
    | Ok map ->
      let manifest = Filename.concat out "manifest.json" in
      Dist.Shard_map.save map manifest;
      Format.printf
        "wrote %s: %d shard(s) x %d replica(s) over %d document(s)@." manifest
        (Dist.Shard_map.shard_count map)
        replicas docs
  in
  let shards_arg =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of document-range shards to extract.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "Output directory for the shard images and manifest.json \
             (created if missing).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR"
          ~doc:"Host written into every manifest endpoint.")
  in
  let port_base_arg =
    Arg.(
      value & opt int 7100
      & info [ "port-base" ] ~docv:"PORT"
          ~doc:
            "First endpoint port; shard i replica r is assigned \
             PORT + i*replicas + r.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Replica endpoints per shard (all serving the same image; the \
             coordinator fails over between them).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Split a corpus into document-range shard images plus a JSON \
          manifest for the tixq coordinator")
    Term.(
      const run $ paths_arg $ skip_bad_arg $ shards_arg $ out_arg $ host_arg
      $ port_base_arg $ replicas_arg)

let () =
  let info =
    Cmd.info "tixdb" ~version:"1.0.0"
      ~doc:"Querying structured text in an XML database (TIX)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            query_cmd; search_cmd; phrase_cmd; stats_cmd; gen_cmd; build_cmd;
            shard_cmd; client_cmd; ingest_cmd; rm_cmd; demo_cmd;
          ]))

(* What the tixdb, tixd and tixq front ends share: logging set-up and
   loading a corpus from the command line. *)

(* TIX_LOG=debug|info enables tracing on stderr *)
let init_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  match Sys.getenv_opt "TIX_LOG" with
  | Some "debug" -> Logs.set_level (Some Logs.Debug)
  | Some "info" -> Logs.set_level (Some Logs.Info)
  | Some _ | None -> Logs.set_level (Some Logs.Warning)

(* XML documents, or a single saved .tix database image. With
   [skip_bad] the load is error-isolated: documents that fail to parse
   or ingest are reported on stderr and skipped, and the rest of the
   corpus still loads. Any other failure prints a typed error and
   exits 1. *)
let load_files ?verify ~skip_bad paths =
  match paths with
  | [ path ] when Filename.check_suffix path ".tix" -> begin
    match Store.Db.open_file ?verify path with
    | Ok db -> db
    | Error e ->
      Format.eprintf "error: %a@." Store.Db.pp_error e;
      exit 1
  end
  | paths when skip_bad ->
    let docs =
      List.to_seq paths
      |> Seq.map (fun path ->
             ( Filename.basename path,
               match Xmlkit.Parser.parse_file path with
               | Ok root -> Ok root
               | Error e ->
                 Error
                   (Format.asprintf "parse error: %a" Xmlkit.Parser.pp_error e)
             ))
    in
    let db, report = Store.Db.load_isolated docs in
    if report.failed <> [] then
      Format.eprintf "%a@." Store.Db.pp_load_report report;
    db
  | paths ->
    let docs =
      List.map
        (fun path ->
          match Xmlkit.Parser.parse_file path with
          | Ok root -> (Filename.basename path, root)
          | Error e ->
            Format.eprintf "%s: parse error: %a@." path Xmlkit.Parser.pp_error e;
            exit 1)
        paths
    in
    Store.Db.of_documents docs

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, fn, _) ->
    raise (Sys_error (Printf.sprintf "%s: %s: %s" dir fn (Unix.error_message e)))
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        try Unix.fsync fd
        with Unix.Unix_error (e, fn, _) ->
          raise (Sys_error (Printf.sprintf "%s: %s: %s" dir fn (Unix.error_message e))))

let rename ~src ~dst =
  Sys.rename src dst;
  fsync_dir (Filename.dirname dst)

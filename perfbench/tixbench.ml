(* The TIX service benchmark.

     tixbench --workload read-mix --seed 1 --seconds 10 --trace 0

   One run generates a synthetic corpus from the seed, serves it
   in-process through the stack tixd and tixq use (Engine -> Scheduler
   -> Server, plus Updates or a distributed Coordinator), drives it
   over loopback TCP from a child process of its own (--client, one
   per phase), checks the answers and prints one JSON object as its
   last line:

     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}

   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the run splits its time into an untraced and a traced half, then
   replays a sample of requests through each layer's public entry
   point on this domain, and prints the per-layer metrics. The line
   before the result holds the run's context (host, corpus shape,
   configuration, sample counts). perfbench/README.md describes the
   workloads and every metric. *)

open Service

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Sample sets *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int; m : Mutex.t }

  let create () = { a = Array.make 64 0.; n = 0; m = Mutex.create () }

  let add t v =
    Mutex.protect t.m (fun () ->
        if t.n = Array.length t.a then begin
          let b = Array.make (2 * t.n) 0. in
          Array.blit t.a 0 b 0 t.n;
          t.a <- b
        end;
        t.a.(t.n) <- v;
        t.n <- t.n + 1)

  let values t = Mutex.protect t.m (fun () -> Array.sub t.a 0 t.n)
  let count t = Mutex.protect t.m (fun () -> t.n)
  let sum t = Array.fold_left ( +. ) 0. (values t)
  let mean t = match count t with 0 -> 0. | n -> sum t /. float_of_int n

  (* nearest-rank quantile of [a], which it sorts *)
  let quantile_of a q =
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.
    else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

  let quantile t q = quantile_of (values t) q
  let median t = quantile t 0.5

  (* [f] of the values in each of [windows] equal slices of [span]
     seconds, a value's slice given by [at] (its send time, seconds
     from the start; [at] and [t] were filled in step). Empty slices
     are left out. [windowed] is the median of these. *)
  let per_window ~windows ~span ~at t f =
    let times = values at and vals = values t in
    let slices = Array.make windows [] in
    Array.iteri
      (fun i time ->
        let w = max 0 (min (windows - 1) (int_of_float (time /. span *. float_of_int windows))) in
        slices.(w) <- vals.(i) :: slices.(w))
      times;
    List.filter_map
      (fun l -> if l = [] then None else Some (f (Array.of_list l)))
      (Array.to_list slices)

  let windowed ~windows ~span ~at t f =
    let per = create () in
    List.iter (add per) (per_window ~windows ~span ~at t f);
    median per
end

(* Named sample sets filled by the benchmark's own spans. *)
module Layer = struct
  let tbl : (string, Samples.t) Hashtbl.t = Hashtbl.create 64
  let m = Mutex.create ()

  let get name =
    Mutex.protect m (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some s -> s
        | None ->
          let s = Samples.create () in
          Hashtbl.add tbl name s;
          s)

  let add name v = Samples.add (get name) v

  (* [f]'s result and elapsed microseconds; with [words], the minor
     words this domain allocated meanwhile go to that set *)
  let measure ?words f =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let v = f () in
    let us = (now () -. t0) *. 1e6 in
    Option.iter (fun w -> add w (Gc.minor_words () -. w0)) words;
    (v, us)

  (* [measure], recording the microseconds under [name] *)
  let span ?words name f =
    let v, us = measure ?words f in
    add name us;
    v

  let median name = Samples.median (get name)
  let sum name = Samples.sum (get name)
  let count name = Samples.count (get name)
end

(* ------------------------------------------------------------------ *)
(* Options *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work : string;
  tiny : bool;
  setup_only : bool;
  client : bool;
  phase : string;
  port : int;
  write_port : int;
  skip_writes : int;
  probe_serve : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and work = ref ".bench_work" and tiny = ref false in
  let setup_only = ref false and client = ref false and phase = ref "timed" in
  let port = ref 0 and write_port = ref 0 and skip_writes = ref 0 in
  let probe_serve = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME read-mix|hot-repeat|ingest-read|scatter");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--work", Arg.Set_string work, "DIR scratch directory for images and WALs");
      ("--tiny", Arg.Set tiny, " tiny corpus (self-check)");
      ("--setup-only", Arg.Set setup_only, " set up once, print the timings, exit");
      ("--client", Arg.Set client, " be the load generator of one phase (see [client_main])");
      ("--phase", Arg.Set_string phase, "NAME the phase a --client run generates load for");
      ("--port", Arg.Set_int port, "P where a --client run sends reads");
      ("--write-port", Arg.Set_int write_port, "P where a --client run sends writes (0: none)");
      ("--skip-writes", Arg.Set_int skip_writes, "N mutations earlier phases already sent");
      ("--probe-serve", Arg.Set probe_serve, " serve the write probe's store (see [probe_main])");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "tixbench [options]";
  if not (List.mem !workload [ "read-mix"; "hot-repeat"; "ingest-read"; "scatter" ])
  then fail "unknown workload %S" !workload;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    work = !work;
    tiny = !tiny;
    setup_only = !setup_only;
    client = !client;
    phase = !phase;
    port = !port;
    write_port = !write_port;
    skip_writes = !skip_writes;
    probe_serve = !probe_serve;
  }

(* ------------------------------------------------------------------ *)
(* Files *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

(* ------------------------------------------------------------------ *)
(* Corpus: a fixed log-uniform ladder of planted term frequencies
   (20..10 000 at 2 500 articles, scaled with the article count) and
   six planted phrases; the seed places them and writes the text. *)

let n_terms = 32
let term i = Printf.sprintf "bt%02d" i
let reference_articles = 2500

(* The served image: 1 000 articles (the ladder scaled to 8..4 000
   occurrences). At 2 500, requests cost 2.5 times as much, a run
   gathered ~1 000 reads, and the median of a mix whose costs span two
   decades moved ~10% between seeds. *)
let read_articles = 1000

let term_freq ~scale i =
  let f = 20. *. (500. ** (float_of_int i /. float_of_int (n_terms - 1))) in
  max 2 (int_of_float (Float.round (f *. scale)))

let phrase_pairs = List.init 6 (fun i -> (4 + (4 * i), 5 + (4 * i)))

(* [short] articles (one chapter, one section, two paragraphs: an
   eighteenth of the default) are what the writers insert *)
let corpus_config ?(short = false) ~seed ~articles () =
  let shape =
    if short then
      { Workload.Corpus.default with
        chapters_per_article = 1; sections_per_chapter = 1; paragraphs_per_section = 2 }
    else Workload.Corpus.default
  in
  let capacity a = Workload.Corpus.paragraph_capacity { shape with articles = a } in
  let scale =
    float_of_int (capacity articles)
    /. float_of_int
         (Workload.Corpus.paragraph_capacity
            { Workload.Corpus.default with articles = reference_articles })
  in
  {
    shape with
    articles;
    seed;
    planted_terms = List.init n_terms (fun i -> (term i, term_freq ~scale i));
    planted_phrases =
      List.mapi
        (fun i (a, b) ->
          (term a, term b, max 1 (int_of_float (float_of_int (20 lsl i) *. scale))))
        phrase_pairs;
  }

let generate ?short ~seed ~articles () =
  List.of_seq (Workload.Corpus.generate (corpus_config ?short ~seed ~articles ()))

let xml_of tree = Xmlkit.Printer.to_string tree

let load_options = { Store.Db.default_options with keep_trees = false }

(* ------------------------------------------------------------------ *)
(* Read requests *)

type rq = {
  req : Engine.request;
  k : int;
  par : int option;
      (** the traced replay also times Exec.Par at this parallelism;
          the wire line never asks for it (see [make_rq]) *)
  line : string;  (** the wire line sent *)
  family : string;
}

let exec_request rq =
  Protocol.Exec
    {
      req = rq.req;
      k = Some rq.k;
      limits = Core.Governor.unlimited;
      trace = false;
      parallelism = rq.par;
      theta = None;
    }

(* Served requests run sequentially: intra-query parallelism puts
   helper domains into every stop-the-world minor collection, and on a
   shared 2-core host that made throughput swing threefold between
   runs. *)
let make_rq ?par ~k ~family req =
  let rq = { req; k; par = None; line = ""; family } in
  { rq with par; line = Json.to_string (Protocol.request_to_json (exec_request rq)) }

(* a served line back as a request, for the answer check *)
let rq_of_line line =
  match Protocol.parse_request line with
  | Ok (Protocol.Exec { req; k; _ }) ->
    Some { req; k = Option.value k ~default:10; par = None; line; family = "" }
  | _ -> None

let query_text ~scope ~t1 ~t2 ~k =
  Printf.sprintf
    {|for $a in document("*")//%s/descendant-or-self::* score $a using ScoreFoo($a, {"%s"}, {"%s"}) return <r>{$a}</r> sortby(score) threshold $a/@score > 0 stop after %d|}
    scope t1 t2 k

(* The read-mix distribution: every access method the service
   exposes, two distinct planted terms drawn uniformly from the ladder
   (so their frequencies are log-uniform), k in 5..50, a quarter of
   the eligible requests at parallelism 2. Complex scoring draws from
   the lower 23 rungs (up to ~1 600 occurrences): at 10 000 one
   request takes most of a second and a handful of them would decide
   a run's throughput. [slot] (0..99) picks the request kind, [rungs]
   the two terms' ladder rungs (drawn when absent). *)
let gen_request ?k ?rungs st slot =
  let int n = Random.State.int st n in
  let a, b =
    match rungs with
    | Some (a, b) -> (a, if b = a then (a + 1) mod n_terms else b)
    | None ->
      let a = int n_terms in
      (a, (a + 1 + int (n_terms - 1)) mod n_terms)
  in
  (* the lower 23 rungs, keeping the pair distinct *)
  let low r = r * 23 / n_terms in
  let low_pair = (low a, if low b = low a then (low a + 1) mod 23 else low b) in
  let k = match k with Some k -> k | None -> 5 + int 46 in
  (* sub-choices follow the slot, so a block's composition is exact *)
  let par () = if slot * 5 / 3 mod 4 = 0 then Some 2 else None in
  let search ?anchor ?(complex = false) method_ family =
    let par = if anchor = None then par () else None in
    let a, b = if complex then low_pair else (a, b) in
    make_rq ?par ~k ~family
      (Engine.Search { terms = [ term a; term b ]; method_; complex; anchor })
  in
  let terms = [ term a; term b ] in
  match slot with
  | x when x < 12 -> search Engine.Termjoin "termjoin"
  | x when x < 20 -> search ~complex:true Engine.Termjoin "termjoin"
  | x when x < 30 -> search ~complex:(x mod 2 = 0) Engine.Enhanced "enhanced"
  | x when x < 40 -> search Engine.Genmeet "genmeet"
  | x when x < 50 -> search Engine.Auto "auto"
  | x when x < 58 ->
    let anchor = if x mod 2 = 0 then "section" else "chapter" in
    let m = [| Engine.Termjoin; Engine.Genmeet; Engine.Auto |].(x / 2 mod 3) in
    search ~anchor m "pattern"
  | x when x < 72 ->
    let phrase =
      if x mod 4 > 0 then
        let i, j = List.nth phrase_pairs (x mod List.length phrase_pairs) in
        term i ^ " " ^ term j
      else String.concat " " terms
    in
    make_rq ?par:(par ()) ~k ~family:"phrase"
      (Engine.Phrase { phrase; comp3 = false })
  | x when x < 86 ->
    make_rq ?par:(par ()) ~k ~family:"ranked" (Engine.Ranked { terms })
  | _ ->
    let scope = [| "article"; "chapter"; "section" |].(slot mod 3) in
    make_rq ~k ~family:"query"
      (Engine.Query
         { q = query_text ~scope ~t1:(term a) ~t2:(term b) ~k; mode = `Auto })

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A request stream: blocks of 100 requests holding every slot once,
   in seeded order, so each kind keeps its exact share in every run,
   and every k in 5..50 its share.
   [~no_query] spreads the compiled-query slots over the other kinds:
   at this commit a compiled query over a pending delta can return
   fewer rows than a rebuild of the same documents, so the write
   workloads leave it out (perfbench/README.md). *)
(* first slot of each request kind in [gen_request], and the end *)
let kind_starts = [| 0; 12; 20; 30; 40; 50; 58; 72; 86; 100 |]

let request_stream ?(no_query = false) st =
  let kinds = Array.length kind_starts - 1 in
  let size i = kind_starts.(i + 1) - kind_starts.(i) in
  let block = Array.init 100 Fun.id and next = ref 100 in
  let ks = Array.init 100 (fun j -> 5 + (j * 46 / 100)) in
  (* Within a block, each kind's requests lead with evenly spaced
     ladder rungs and follow with another evenly spaced set, in seeded
     pairing and phase, so every kind sees the same spread of term
     frequencies in every block. *)
  let phase = Array.make (2 * kinds) 0 in
  let pairing = Array.init kinds (fun i -> Array.init (size i) Fun.id) in
  let rungs slot =
    let i = ref 0 in
    while kind_starts.(!i + 1) <= slot do incr i done;
    let pos = slot - kind_starts.(!i) and n = size !i in
    let spaced p ph = ((p * n_terms / n) + ph) mod n_terms in
    (spaced pos phase.(2 * !i), spaced pairing.(!i).(pos) phase.((2 * !i) + 1))
  in
  fun () ->
    if !next = 100 then begin
      List.iter (shuffle st) (block :: ks :: Array.to_list pairing);
      Array.iteri (fun i _ -> phase.(i) <- Random.State.int st n_terms) phase;
      next := 0
    end;
    let j = !next in
    incr next;
    let slot = block.(j) in
    gen_request ~k:ks.(j) ~rungs:(rungs slot) st
      (if no_query && slot >= 86 then (slot - 86) * 86 / 14 else slot)

(* ------------------------------------------------------------------ *)
(* Wire client *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let roundtrip c line =
  send c line;
  input_line c.ic

let disconnect c =
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let is_ok resp = String.starts_with ~prefix:{|{"ok":true|} resp

(* ------------------------------------------------------------------ *)
(* Serving *)

(* In the traced half of a --trace 1 run the server answers read ops
   through this replica of [Server.handle]'s exec path, which records
   submit->await (queue wait plus execution) around the scheduler. *)
let tracing = Atomic.make false

let traced_handler ?updates sched (req : Protocol.request) =
  match req with
  | Protocol.Exec { req; k; limits; trace; parallelism; theta }
    when Atomic.get tracing -> begin
    let t0 = now () in
    match Scheduler.submit sched ~limits ?k ?theta ~trace ?parallelism req with
    | Error e ->
      Protocol.error_to_json ~code:(Scheduler.error_code e)
        ~message:"submission refused"
    | Ok p -> (
      let outcome = Scheduler.await p in
      let wall = now () -. t0 in
      match outcome with
      | Ok res ->
        let exec_s =
          Option.value ~default:0. (List.assoc_opt "total" res.Engine.timings)
        in
        Layer.add "queue_wait" ((wall -. exec_s) *. 1e6);
        Layer.add "submit_await" (wall *. 1e6);
        Protocol.result_to_json res
      | Error e -> Protocol.engine_error_to_json e)
  end
  | req -> Server.handle ?updates sched req

let start_server ~traced ?updates sched =
  if traced then Server.start_handler (traced_handler ?updates sched)
  else Server.start ?updates sched

(* ------------------------------------------------------------------ *)
(* Environments *)

type live_doc = Tree of Xmlkit.Tree.element | Xml of string

type ingest = {
  live : Store.Live.t;
  updates : Updates.t;
  wal_dir : string;
}

type env = {
  port : int;  (** where the clients connect *)
  sched : Scheduler.t;
      (** the serving scheduler; for scatter, the single-node reference *)
  shards : (Scheduler.t * Dist.Shard_map.endpoint) list;
  coord : Dist.Coordinator.t option;
  ingest : ingest option;
  images : string list;  (** image files serving the corpus *)
  parts : (string * float) list;  (** store.build_s, save_s, open_s *)
  stop : unit -> unit;
}

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

let ok_or_fail what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* Scheduler worker domains. One closed-loop connection keeps at most
   one request in flight, so a second worker would only idle; yet
   every running domain takes part in each stop-the-world minor
   collection, and on a shared host each one it must wait for is a
   chance to be descheduled. *)
let workers = 1

(* The in-memory build is garbage once saved; collecting it here keeps
   it from adding to the peak RSS of the steps that follow. *)
let build_and_save ~docs path =
  let build_s, save_s =
    let build_s, db = timed (fun () -> Store.Db.load ~options:load_options (List.to_seq docs)) in
    (build_s, fst (timed (fun () -> Store.Db.save db path)))
  in
  Gc.full_major ();
  (build_s, save_s)

let setup_read ~dir ~docs ~traced =
  let path = Filename.concat dir "corpus.tix" in
  let build_s, save_s = build_and_save ~docs path in
  let open_s, snap = timed (fun () -> ok_or_fail "open" (Engine.load path)) in
  let sched = Scheduler.create ~workers ~max_parallelism:1 snap in
  let server = start_server ~traced sched in
  {
    port = Server.port server;
    sched;
    shards = [];
    coord = None;
    ingest = None;
    images = [ path ];
    parts = [ ("build", build_s); ("save", save_s); ("open", open_s) ];
    stop =
      (fun () ->
        Server.stop server;
        Scheduler.shutdown sched);
  }

let setup_scatter ~dir ~docs =
  let path = Filename.concat dir "corpus.tix" in
  let build_s, save_s = build_and_save ~docs path in
  let open_s, full = timed (fun () -> ok_or_fail "open" (Engine.load path)) in
  let n = List.length docs in
  let shards, open_shards =
    List.split
      (List.mapi
         (fun i (lo, hi) ->
           let tombstones = Array.init n (fun d -> d < lo || d >= hi) in
           let spath = Filename.concat dir (Printf.sprintf "shard-%d.tix" i) in
           Store.Db.save (Store.Db.compact ~base:full.Engine.db ~delta:None ~tombstones) spath;
           Gc.full_major ();
           let dt, snap = timed (fun () -> ok_or_fail "open shard" (Engine.load spath)) in
           (* shard result caches off: the traced replay re-sends
              requests and must measure executions *)
           let sched =
             Scheduler.create ~workers:1 ~max_parallelism:2 ~result_cache_capacity:0 snap
           in
           let server = Server.start sched in
           let ep = { Dist.Shard_map.host = "127.0.0.1"; port = Server.port server } in
           (({ Dist.Shard_map.lo; hi; image = spath; replicas = [ ep ] }, sched, server, ep), dt))
         (Dist.Shard_map.ranges ~docs:n ~shards:2))
  in
  let map =
    ok_or_fail "shard map" (Dist.Shard_map.make (List.map (fun (s, _, _, _) -> s) shards))
  in
  let coord = Dist.Coordinator.create ~window:1 ~source:"perfbench" map in
  let server = Server.start_handler ~name:"tixq" (Dist.Coordinator.handle coord) in
  (* the single-node oracle over the whole image, caches off *)
  let reference =
    Scheduler.create ~workers:1 ~plan_cache_capacity:0 ~result_cache_capacity:0 full
  in
  {
    port = Server.port server;
    sched = reference;
    shards = List.map (fun (_, s, _, ep) -> (s, ep)) shards;
    coord = Some coord;
    ingest = None;
    images = List.map (fun (s, _, _, _) -> s.Dist.Shard_map.image) shards;
    parts =
      [
        ("build", build_s);
        ("save", save_s);
        ("open", open_s +. List.fold_left ( +. ) 0. open_shards);
      ];
    stop =
      (fun () ->
        Server.stop server;
        Dist.Client.close (Dist.Coordinator.client coord);
        List.iter
          (fun (_, s, srv, _) ->
            Server.stop srv;
            Scheduler.shutdown s)
          shards;
        Scheduler.shutdown reference);
  }

let setup_ingest ~dir ~docs ~every_docs ~traced =
  let path = Filename.concat dir "base.tix" in
  let build_s, save_s = build_and_save ~docs path in
  let wal_dir = Filename.concat dir "wal" in
  fresh_dir wal_dir;
  let open_s, (live, sched) =
    timed (fun () ->
        let base =
          match Store.Db.open_file path with
          | Ok db -> db
          | Error e -> fail "open base: %s" (Store.Db.error_to_string e)
        in
        let opened =
          match Store.Live.open_dir ~base ~dir:wal_dir () with
          | Ok o -> o
          | Error e -> fail "open live: %s" (Store.Live.error_to_string e)
        in
        let live = opened.Store.Live.live in
        let snap = ok_or_fail "snapshot" (Engine.of_db ~source:path (Store.Live.base live)) in
        (live, Scheduler.create ~workers ~max_parallelism:1 snap))
  in
  let updates = Updates.create ~every_docs ~live ~scheduler:sched () in
  let server = start_server ~traced ~updates sched in
  {
    port = Server.port server;
    sched;
    shards = [];
    coord = None;
    ingest = Some { live; updates; wal_dir };
    images = [ path ];
    parts = [ ("build", build_s); ("save", save_s); ("open", open_s) ];
    stop =
      (fun () ->
        Server.stop server;
        Updates.shutdown updates;
        Scheduler.shutdown sched;
        Store.Live.close live);
  }

(* ------------------------------------------------------------------ *)
(* Load generation

   The load of each phase comes from a child process of this program
   ([client_main]): one closed-loop connection for the reads and, where
   the workload writes, a thread that sends the mutations. In a process
   of its own the generator's allocation never stops the serving
   domains for a minor collection, and a checkpoint on the serving
   domain never delays the generator. With two connections on a domain
   of the serving process, beside two scheduler workers and a second
   store's, a run of the same seed on a shared 2-core host could
   report a third of another's throughput. *)

let stream o tag = Random.State.make [| o.seed; Hashtbl.hash tag |]

let articles_of o =
  match (o.workload = "ingest-read", o.tiny) with
  | true, false -> 500
  | true, true -> 20
  | false, false -> read_articles
  | false, true -> 40

(* hot-repeat's 64 requests: seeded kinds and terms, but k fixed by
   Zipf rank, so the hottest responses keep their size across seeds *)
let hot_set o =
  let st = stream o "hot-set" in
  let slots = Array.init 100 Fun.id in
  shuffle st slots;
  Array.init 64 (fun r -> gen_request ~k:(5 + (r * 45 / 63)) st slots.(r))

(* the read requests of one phase *)
let next_for o phase =
  let st = stream o phase in
  if o.workload = "hot-repeat" then begin
    let set = hot_set o in
    let zipf = Workload.Zipf.create ~exponent:1.0 (Array.length set) in
    fun () -> set.(Workload.Zipf.sample zipf st)
  end
  else request_stream ~no_query:(o.workload = "ingest-read") st

type reads = {
  lat : Samples.t;  (** seconds, client-observed *)
  at : Samples.t;  (** when each was sent, seconds into the phase *)
  resp_bytes : Samples.t;
  mutable ok : int;
  mutable errors : int;
  mutable kept : (rq * string) list;  (** responses kept for the answer check *)
  mutable wall : float;  (** the generator's first send to its last response *)
  delta_seen : Samples.t;
}

let new_reads () =
  {
    lat = Samples.create ();
    at = Samples.create ();
    resp_bytes = Samples.create ();
    ok = 0;
    errors = 0;
    kept = [];
    wall = 0.;
    delta_seen = Samples.create ();
  }

type writes = {
  wlat : Samples.t;  (** seconds from send to ack, recorded phases *)
  late : Samples.t;  (** seconds each left after it was due, recorded phases *)
  mutable sent : int;  (** mutations drawn and sent, every phase *)
  mutable acked : int;
  mutable wfailed : int;
  mutable xml_bytes : int;  (** XML bytes of acknowledged inserts/updates *)
  mutable measured : int;  (** acknowledged in recorded phases *)
  mutable span_s : float;  (** first due to last ack, recorded phases *)
}

let new_writes () =
  { wlat = Samples.create (); late = Samples.create (); sent = 0; acked = 0; wfailed = 0; xml_bytes = 0; measured = 0;
    span_s = 0. }

type model = {
  docs : (string, live_doc) Hashtbl.t;
  mutable names : string array;  (** the live names, for drawing *)
  mutable n_names : int;
  pool : string array;  (** XML of generated articles to insert *)
  mutable next_new : int;
  tag : string;
  kinds : int array;  (** a block of 20 mutation kinds, see [next_mutation] *)
  mutable kind_next : int;
}

let model_of_docs ~tag ~pool docs =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (name, tree) -> Hashtbl.replace tbl name (Tree tree)) docs;
  {
    docs = tbl;
    names = Array.of_list (List.map fst docs);
    n_names = List.length docs;
    pool;
    next_new = 0;
    tag;
    kinds = Array.init 20 (fun i -> i * 5);
    kind_next = 20;
  }

let add_name m name =
  if m.n_names = Array.length m.names then begin
    let b = Array.make (max 16 (2 * m.n_names)) "" in
    Array.blit m.names 0 b 0 m.n_names;
    m.names <- b
  end;
  m.names.(m.n_names) <- name;
  m.n_names <- m.n_names + 1

(* Draw the next mutation and apply it to the model. Each block of 20
   holds 12 inserts, 5 updates and 3 deletes in seeded order (deletes
   turn into inserts once only half the base is left). *)
let next_mutation st m ~floor =
  let pool_xml () = m.pool.(Random.State.int st (Array.length m.pool)) in
  let pick () = Random.State.int st m.n_names in
  if m.kind_next = Array.length m.kinds then begin
    shuffle st m.kinds;
    m.kind_next <- 0
  end;
  m.kind_next <- m.kind_next + 1;
  match m.kinds.(m.kind_next - 1) with
  | x when x < 60 || m.n_names <= floor ->
    let name = Printf.sprintf "%s-%d.xml" m.tag m.next_new in
    m.next_new <- m.next_new + 1;
    let xml = pool_xml () in
    Hashtbl.replace m.docs name (Xml xml);
    add_name m name;
    (Protocol.Insert { name; xml }, String.length xml)
  | x when x < 85 ->
    let name = m.names.(pick ()) in
    let xml = pool_xml () in
    Hashtbl.replace m.docs name (Xml xml);
    (Protocol.UpdateDoc { name; xml }, String.length xml)
  | _ ->
    let i = pick () in
    let name = m.names.(i) in
    m.names.(i) <- m.names.(m.n_names - 1);
    m.n_names <- m.n_names - 1;
    Hashtbl.remove m.docs name;
    (Protocol.Remove { name }, 0)

(* The short articles the writers insert and update with. *)
let writer_pool o =
  Array.of_list
    (List.map
       (fun (_, t) -> xml_of t)
       (generate ~short:true ~seed:(o.seed + 7919) ~articles:(if o.tiny then 8 else 200) ()))

(* the write probe's store (see [main]) *)
let probe_docs o = generate ~seed:(o.seed + 104729) ~articles:(if o.tiny then 10 else 500) ()

(* A writer over [docs]: its model, floor and seeded stream, with the
   first [skip] mutations already drawn. The load generator and the
   serving process build the same one: the generator to carry on where
   the previous phase's left off, the serving process to know the live
   documents for the answer checks. *)
let writer o ~probe ~pool ~docs ~skip =
  let model = model_of_docs ~tag:(if probe then "probe" else "new") ~pool docs in
  let floor = List.length docs / 2 in
  let st = stream o (if probe then "probe" else "writer") in
  for _ = 1 to skip do
    ignore (next_mutation st model ~floor : Protocol.request * int)
  done;
  (model, floor, st)

(* Every mutation republishes a snapshot whose delta index is rebuilt
   from all pending documents, and a checkpoint of a 500-article base
   costs ~0.5 s on the serving domain, so per-write cost grows with
   [every_docs] while checkpoint cost falls with it. Both writers (the
   ingest-read writer and the probe) stay far under capacity: a
   checkpoint every 50 documents, or ~2.5 s (every ~1.3 s kept the
   serving domain merging most of the time). A 50-article probe store
   checkpointing every 20 documents had many short stalls instead; its
   p99 moved twice as much between runs. *)
let write_rate = 20.
let every_docs o = if o.tiny then 10 else 50

(* The generator's reads: the next request leaves when the previous
   response has arrived. Printed lines, one per read and one per kept
   response, then the reads' wall time:
     r FAMILY SECONDS BYTES OK SENT_AT
     k<TAB>REQUEST<TAB>RESPONSE
     rs SECONDS *)
let client_reads ~port ~deadline ~next ~keep_every buf =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> disconnect c)
    (fun () ->
      let start = now () and i = ref 0 and errors = ref 0 in
      while now () < deadline do
        let rq = next () in
        let t0 = now () in
        let resp = roundtrip c rq.line in
        let dt = now () -. t0 in
        let ok = is_ok resp in
        Printf.bprintf buf "r %s %.9f %d %d %.6f\n" rq.family dt (String.length resp + 1)
          (Bool.to_int ok) (t0 -. start);
        if not ok then begin
          incr errors;
          if !errors <= 3 then Printf.eprintf "read failed: %s\n  -> %s\n%!" rq.line resp
        end;
        if !i mod keep_every = 0 then Printf.bprintf buf "k\t%s\t%s\n" rq.line resp;
        incr i
      done;
      Printf.bprintf buf "rs %.9f\n" (now () -. start))

(* The generator's writes: a fixed schedule of mutations over one
   connection, one at a time. A mutation leaves when it is due or,
   after a stall, as soon as the previous ack arrives. Its latency runs
   from send to ack. Charging a stall to every mutation it delayed, as
   an earlier version did, let one slow stretch of a shared host decide
   a run's write figures. (Pipelining the mutations on the connection
   made acks arrive only with the next send whenever the interval was
   under ~40 ms.) Printed lines, one per mutation, then the first due
   time to the last ack:
     w SECONDS OK XML_BYTES LATE_SECONDS
     ws SECONDS *)
let client_writes ~port ~rate ~deadline ~st ~model ~floor buf =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> disconnect c)
    (fun () ->
      let start = now () in
      let i = ref 0 and last_ack = ref start and failed = ref 0 in
      while start +. (float_of_int !i /. rate) < deadline do
        let due = start +. (float_of_int !i /. rate) in
        let wait = due -. now () in
        if wait > 0. then Thread.delay wait;
        let req, bytes = next_mutation st model ~floor in
        let line = Json.to_string (Protocol.request_to_json req) in
        let t0 = now () in
        let resp = roundtrip c line in
        last_ack := now ();
        let ok = is_ok resp in
        if not ok then begin
          incr failed;
          if !failed <= 3 then Printf.eprintf "write failed: %s\n%!" resp
        end;
        Printf.bprintf buf "w %.9f %d %d %.6f\n" (!last_ack -. t0) (Bool.to_int ok) bytes
          (t0 -. due);
        incr i
      done;
      Printf.bprintf buf "ws %.9f\n" (!last_ack -. start))

(* The load generator of one phase (--client): reads at --port for
   --seconds, writes at --write-port beside them, then everything it
   saw on standard output. *)
let client_main o =
  let ingest_w = o.workload = "ingest-read" in
  let writer =
    if o.write_port = 0 then None
    else begin
      let docs =
        if ingest_w then generate ~seed:o.seed ~articles:(articles_of o) () else probe_docs o
      in
      Some (writer o ~probe:(not ingest_w) ~pool:(writer_pool o) ~docs ~skip:o.skip_writes)
    end
  in
  let next = next_for o o.phase in
  let rbuf = Buffer.create (1 lsl 16) and wbuf = Buffer.create (1 lsl 14) in
  let write_error = ref None in
  let deadline = now () +. o.seconds in
  let th =
    Option.map
      (fun (model, floor, st) ->
        Thread.create
          (fun () ->
            try
              client_writes ~port:o.write_port ~rate:write_rate ~deadline
                ~st ~model ~floor wbuf
            with e -> write_error := Some e)
          ())
      writer
  in
  client_reads ~port:o.port ~deadline ~next
    ~keep_every:(if o.workload = "hot-repeat" then 64 else 8)
    rbuf;
  Option.iter Thread.join th;
  Option.iter raise !write_error;
  print_string (Buffer.contents rbuf);
  print_string (Buffer.contents wbuf)

(* Runs one phase's load generator to its end and files what it
   reported: reads into [reads], writes into [w], their latencies and
   span only when [record]. *)
let run_client o ~phase ~duration ~port ~write_port ~reads ~(w : writes) ~record =
  let args =
    [ Sys.executable_name; "--client"; "--workload"; o.workload; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%.3f" duration; "--phase"; phase;
      "--port"; string_of_int port; "--write-port"; string_of_int write_port;
      "--skip-writes"; string_of_int w.sent ]
    @ if o.tiny then [ "--tiny" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "the load generator of phase %s failed" phase);
  let file line =
    match String.split_on_char '\t' line with
    | [ "k"; sent; resp ] ->
      Option.iter (fun rq -> reads.kept <- (rq, resp) :: reads.kept) (rq_of_line sent)
    | _ -> (
      match String.split_on_char ' ' line with
      | [ "r"; family; dt; bytes; ok; at ] ->
        let dt = float_of_string dt in
        Samples.add reads.lat dt;
        Samples.add reads.at (float_of_string at);
        Layer.add ("family." ^ family) dt;
        Samples.add reads.resp_bytes (float_of_string bytes);
        if ok = "1" then reads.ok <- reads.ok + 1 else reads.errors <- reads.errors + 1
      | [ "rs"; wall ] -> reads.wall <- float_of_string wall
      | [ "w"; dt; ok; bytes; late ] ->
        w.sent <- w.sent + 1;
        if record then Samples.add w.late (float_of_string late);
        if ok = "1" then begin
          w.acked <- w.acked + 1;
          w.xml_bytes <- w.xml_bytes + int_of_string bytes;
          if record then begin
            Samples.add w.wlat (float_of_string dt);
            w.measured <- w.measured + 1
          end
        end
        else w.wfailed <- w.wfailed + 1
      | [ "ws"; span ] -> if record then w.span_s <- w.span_s +. float_of_string span
      | [ "" ] -> ()
      | _ -> fail "the load generator printed %S" line)
  in
  List.iter file (String.split_on_char '\n' out)

(* Polls the live store while writes run. A checkpoint's first phase
   rotates the live log, so its record count drops: the log's size and
   record count at the previous poll close that cycle (a poll is 20 ms,
   at most one mutation). Installed checkpoints add their image size. *)
type wal_meter = {
  mutable cycles : (int * int) list;  (** per rotation, newest first: log bytes, records *)
  mutable ck_bytes : int;
  mutable ck_count : int;
  stop_meter : bool Atomic.t;
}

let new_meter () = { cycles = []; ck_bytes = 0; ck_count = 0; stop_meter = Atomic.make false }

let meter_thread (ig : ingest) (m : wal_meter) () =
  let s0 = Store.Live.stats ig.live in
  let seen = ref s0.Store.Live.checkpoints in
  let last = ref (s0.Store.Live.wal_records, s0.Store.Live.wal_bytes) in
  while not (Atomic.get m.stop_meter) do
    let s = Store.Live.stats ig.live in
    let records, bytes = !last in
    if s.Store.Live.wal_records < records then m.cycles <- (bytes, records) :: m.cycles;
    last := (s.Store.Live.wal_records, s.Store.Live.wal_bytes);
    if s.Store.Live.checkpoints > !seen then begin
      m.ck_bytes <-
        m.ck_bytes + file_size (Store.Live.checkpoint_path ~dir:ig.wal_dir);
      m.ck_count <- m.ck_count + (s.Store.Live.checkpoints - !seen);
      seen := s.Store.Live.checkpoints
    end;
    Thread.delay 0.02
  done

(* Bytes written per XML byte over the mutations that completed
   checkpoints cover: their logs plus images, against their XML, taken
   at the run's mean XML bytes per acknowledged mutation (a delete has
   none; one log record is one mutation). Whole cycles only, so the
   number of checkpoints a run completes does not quantize the ratio.
   Without a completed checkpoint: the live log against all
   acknowledged XML. *)
let write_amp (ig : ingest) m (w : writes) =
  let n = List.length m.cycles in
  let covered = List.filteri (fun i _ -> i >= n - m.ck_count) m.cycles in
  let records = List.fold_left (fun a (_, r) -> a + r) 0 covered in
  if m.ck_count > 0 && records > 0 && w.xml_bytes > 0 then
    float_of_int (List.fold_left (fun a (b, _) -> a + b) m.ck_bytes covered)
    /. (float_of_int records *. float_of_int w.xml_bytes /. float_of_int w.acked)
  else
    float_of_int (file_size (Store.Live.wal_path ~dir:ig.wal_dir))
    /. float_of_int (max 1 w.xml_bytes)

let wait_checkpoints (ig : ingest) =
  let t0 = now () in
  while Updates.checkpoint_in_progress ig.updates && now () -. t0 < 120. do
    Thread.delay 0.01
  done

(* ------------------------------------------------------------------ *)
(* Answer checks *)

let keep_fields names json =
  match json with
  | Json.Obj fields -> Json.Obj (List.filter (fun (n, _) -> List.mem n names) fields)
  | j -> j

(* Numbers compare at the wire's 12 significant digits: a shard sends
   a score of 2.9999999999999996 as "3", which the coordinator then
   re-encodes as "3.0". *)
let rec numbers_as_text = function
  | Json.Int n -> Json.String (Printf.sprintf "%.12g" (float_of_int n))
  | Json.Float f -> Json.String (Printf.sprintf "%.12g" f)
  | Json.List l -> Json.List (List.map numbers_as_text l)
  | Json.Obj fields -> Json.Obj (List.map (fun (n, v) -> (n, numbers_as_text v)) fields)
  | j -> j

(* Rows in the engine's order, as the wire shows it: score descending
   at 12 significant digits, then document and start. Rows whose
   printed scores tie may arrive in either order (a single node orders
   them by the unprinted digits, a coordinator by document), and when
   the list may have been cut at k (by the request or by the query's
   own stop-after), which of the rows tied at the cut fill the last
   places may differ too; only their number must agree. *)
let wire_rows ~truncated rows =
  let key row =
    let num name = Option.bind (Json.member name row) Json.to_float_opt in
    let score = Option.value ~default:nan (num "score") in
    ( Printf.sprintf "%.12g" score,
      ( -.Float.of_string (Printf.sprintf "%.12g" score),
        Option.value ~default:0. (num "doc"),
        Option.value ~default:0. (num "start") ) )
  in
  let keyed = List.map (fun r -> (key r, r)) rows in
  let sorted = List.stable_sort (fun ((_, a), _) ((_, b), _) -> compare a b) keyed in
  match List.rev sorted with
  | ((cut, _), _) :: _ when truncated ->
    let above = List.filter (fun ((s, _), _) -> s <> cut) sorted in
    List.map snd above
    @ [ Json.Obj [ ("tied_at_cut", Json.Int (List.length sorted - List.length above)) ] ]
  | _ -> List.map snd sorted

(* what must agree between a served response and its oracle: the
   answer, not the timings, cache flag, step count or plan text *)
let answer ~k json =
  let json = keep_fields [ "ok"; "total"; "results"; "trees" ] json in
  let json =
    match (json, Option.bind (Json.member "results" json) Json.to_list_opt) with
    | Json.Obj fields, Some rows ->
      let total = Option.bind (Json.member "total" json) Json.to_int_opt in
      let n = List.length rows in
      let truncated = n >= k || match total with Some t -> t > n | None -> false in
      Json.Obj
        (List.map
           (fun (n, v) -> if n = "results" then (n, Json.List (wire_rows ~truncated rows)) else (n, v))
           fields)
    | j, _ -> j
  in
  Json.to_string (numbers_as_text json)

let answer_of_line ~k line =
  match Json.parse line with Ok j -> answer ~k j | Error e -> "unparsable: " ^ e

let oracle_answer snap rq =
  match Engine.exec ~k:rq.k snap rq.req with
  | Ok r -> answer ~k:rq.k (Protocol.result_to_json r)
  | Error e -> answer ~k:rq.k (Protocol.engine_error_to_json e)

let degraded line =
  match Json.parse line with
  | Ok j -> Json.member "degraded" j = Some (Json.Bool true)
  | Error _ -> true

(* the live documents in the served snapshot's dense id order *)
let served_names (snap : Engine.snapshot) =
  let cat = Store.Db.catalog snap.Engine.db in
  let base = List.init (Store.Catalog.document_count cat) (fun d -> d) in
  match snap.Engine.delta with
  | None -> List.map (Store.Catalog.document_name cat) base
  | Some dv ->
    List.filter_map
      (fun d ->
        if dv.Engine.tombstones.(d) then None
        else Some (Store.Catalog.document_name cat d))
      base
    @
    match dv.Engine.delta_db with
    | None -> []
    | Some (ddb, _) ->
      let dc = Store.Db.catalog ddb in
      List.init (Store.Catalog.document_count dc) (Store.Catalog.document_name dc)

(* After the writes stop: every acknowledged mutation is visible and
   answers equal a from-scratch rebuild of the live documents. Returns
   the number of mismatches. *)
let check_ingest ~env ~model ~rqs =
  let ig = Option.get env.ingest in
  wait_checkpoints ig;
  let snap = Scheduler.snapshot env.sched in
  let names = served_names snap in
  let expected = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) model.docs []) in
  let visible_bad =
    if List.sort compare names = expected then 0
    else begin
      Printf.eprintf "live documents differ: %d served, %d acknowledged\n%!" (List.length names)
        (List.length expected);
      1
    end
  in
  let rebuilt =
    Store.Db.load ~options:load_options
      (Seq.map
         (fun name ->
           match Hashtbl.find model.docs name with
           | Tree t -> (name, t)
           | Xml x -> (name, Xmlkit.Parser.parse_string_exn x))
         (List.to_seq (if visible_bad = 0 then names else expected)))
  in
  let oracle = ok_or_fail "rebuild" (Engine.of_db rebuilt) in
  let c = connect env.port in
  let bad =
    Fun.protect
      ~finally:(fun () -> disconnect c)
      (fun () ->
        List.fold_left
          (fun bad rq ->
            let got = answer_of_line ~k:rq.k (roundtrip c rq.line) in
            let expected = oracle_answer oracle rq in
            if got = expected then bad
            else begin
              if bad < 3 then
                Printf.eprintf "answer mismatch after writes for %s\n  served:   %s\n  rebuild:  %s\n%!"
                  rq.line got expected;
              bad + 1
            end)
          0 rqs)
  in
  (visible_bad + bad, 1 + List.length rqs)

(* ------------------------------------------------------------------ *)
(* Host facts *)

let vm_hwm_mb () =
  let status = read_file "/proc/self/status" in
  match
    List.find_opt
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' status)
  with
  | None -> 0.
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
        float_of_int kb /. 1024.)

let filesystem_of dir =
  let target = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let best = ref ("?", -1) in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | _ :: mnt :: fs :: _ ->
        let prefix = if mnt = "/" then "/" else mnt ^ "/" in
        if
          (mnt = target || String.starts_with ~prefix target)
          && String.length mnt > snd !best
        then best := (fs, String.length mnt)
      | _ -> ())
    (String.split_on_char '\n' (read_file "/proc/mounts"));
  fst !best

(* ------------------------------------------------------------------ *)
(* Output *)

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj m);
          ]))

(* ------------------------------------------------------------------ *)
(* Per-layer replay (traced runs): each sampled request goes through
   every layer's public entry point on this domain, one call at a
   time, so the minor-word counts belong to that call alone. *)

let measure = Layer.measure

let mode_of complex =
  if complex then Access.Counter_scoring.Complex else Access.Counter_scoring.Simple

let access_name = function
  | Access.Pattern_exec.Term_join Access.Term_join.Plain -> "access.termjoin"
  | Access.Pattern_exec.Term_join Access.Term_join.Enhanced -> "access.enhanced"
  | Access.Pattern_exec.Gen_meet _ -> "access.genmeet"
  | Access.Pattern_exec.Comp1 | Access.Pattern_exec.Comp2 -> "access.composite"

(* The distributed path: the coordinator, then each shard directly.
   Returns the coordinator's response. *)
let replay_dist ~coord ~shards rq =
  let resp, handle_us =
    measure (fun () -> Dist.Coordinator.handle coord (exec_request rq))
  in
  let client = Dist.Coordinator.client coord in
  let body = Protocol.request_to_json (exec_request rq) in
  let rows_of json =
    match Option.bind (Json.member "results" json) Json.to_list_opt with
    | Some l -> List.length l
    | None -> 0
  in
  let shard_max, shipped =
    List.fold_left
      (fun (mx, shipped) (_, ep) ->
        let r, us = measure (fun () -> Dist.Client.request client ep body) in
        (Float.max mx us, shipped + match r with Ok j -> rows_of j | Error _ -> 0))
      (0., 0) shards
  in
  Layer.add "dist.handle" handle_us;
  Layer.add "dist.shard_max" shard_max;
  Layer.add "dist.merge" (handle_us -. shard_max);
  Layer.add "dist.shipped" (float_of_int shipped);
  Layer.add "dist.returned" (float_of_int (rows_of resp));
  resp

let replay_one ~env ~(snap : Engine.snapshot) rq =
  let db = snap.Engine.db and ctx = snap.Engine.ctx in
  let idx = Store.Db.index db in
  Layer.add "replayed" 1.;
  (* wire *)
  ignore
    (Layer.span ~words:"wire.alloc" "wire.decode" (fun () -> Protocol.parse_request rq.line)
      : (Protocol.request, string) result);
  (match Scheduler.run env.sched ~k:rq.k ?parallelism:rq.par rq.req with
  | Ok (Ok res) ->
    let line =
      Layer.span ~words:"wire.alloc" "wire.encode" (fun () ->
          Json.to_string (Protocol.result_to_json res))
    in
    Layer.add "wire.bytes" (float_of_int (String.length line + 1))
  | Ok (Error _) | Error _ -> ());
  (* engine, caches off, sequential *)
  let outcome, exec_us =
    measure ~words:"engine.alloc" (fun () -> Engine.exec ~k:rq.k snap rq.req)
  in
  Layer.add "engine.exec" exec_us;
  (match outcome with
  | Ok r -> Layer.add "engine.rows" (float_of_int r.Engine.total)
  | Error _ -> ());
  if snap.Engine.delta <> None then begin
    let _, base_us = measure (fun () -> Engine.exec ~k:rq.k { snap with Engine.delta = None } rq.req) in
    let _, delta_us = measure (fun () -> Engine.exec ~k:rq.k snap rq.req) in
    Layer.add "engine.delta_overhead" (delta_us -. base_us)
  end;
  (* the access method's entry point with the request's arguments *)
  let choose ?anchor_tag terms =
    Layer.span "planner.choose" (fun () ->
        Query.Planner.choose ~feedback:snap.Engine.feedback
          ~key:(Engine.canonical_key rq.req) ?anchor_tag ~parallelism:1
          ~stats:(Store.Db.collection_stats db) ~index:idx ~terms ())
  in
  let access name f =
    let n, us = measure ~words:"access.alloc" f in
    Layer.add name us;
    Layer.add "access.rows" (float_of_int n);
    Layer.add "engine.overhead" (exec_us -. us);
    us
  in
  let par name f =
    match rq.par with
    | Some p when p > 1 ->
      let _, us = measure f in
      Layer.add "exec.par" us;
      Layer.add name 1.
    | _ -> ()
  in
  let terms_of =
    match rq.req with
    | Engine.Search { terms; _ } | Engine.Ranked { terms } -> terms
    | Engine.Phrase { phrase; _ } -> Ir.Phrase.parse phrase
    | Engine.Query _ -> []
  in
  let seq_us =
    match rq.req with
    | Engine.Search { terms; method_; complex; anchor } ->
      let mode = mode_of complex in
      let anchor_tag = Option.bind anchor (Store.Catalog.tag_id (Store.Db.catalog db)) in
      let m, est =
        match method_ with
        | Engine.Auto ->
          let d = choose ?anchor_tag terms in
          (d.Query.Planner.access, Some d.Query.Planner.est_rows)
        | Engine.Termjoin -> (Access.Pattern_exec.Term_join Access.Term_join.Plain, None)
        | Engine.Enhanced -> (Access.Pattern_exec.Term_join Access.Term_join.Enhanced, None)
        | Engine.Genmeet -> (Access.Pattern_exec.Gen_meet { use_skips = true }, None)
        | Engine.Comp1 -> (Access.Pattern_exec.Comp1, None)
        | Engine.Comp2 -> (Access.Pattern_exec.Comp2, None)
      in
      let rows = ref 0 in
      let run () =
        match anchor with
        | Some tag ->
          let pat = Core.Pattern.make (Core.Pattern.pnode ~pred:(Core.Pattern.Tag tag) 0 []) [] in
          let l =
            if anchor_tag = None then []
            else Access.Pattern_exec.scored_matches ~mode ~access:m ctx pat ~struct_var:0 ~terms
          in
          rows := List.length l;
          !rows
        | None ->
          let l =
            match m with
            | Access.Pattern_exec.Term_join variant -> Access.Term_join.to_list ~variant ~mode ctx ~terms
            | Access.Pattern_exec.Gen_meet _ -> Access.Gen_meet.to_list ~mode ctx ~terms
            | Access.Pattern_exec.Comp1 -> Access.Composite.comp1_list ~mode ctx ~terms
            | Access.Pattern_exec.Comp2 -> Access.Composite.comp2_list ~mode ctx ~terms
          in
          rows := List.length l;
          !rows
      in
      let us = access (if anchor = None then access_name m else "access.pattern") run in
      Option.iter
        (fun est ->
          Layer.add "planner.log_est_over_actual"
            (log ((float_of_int est +. 1.) /. (float_of_int !rows +. 1.))))
        est;
      if anchor = None then
        par "exec.par_n" (fun () ->
            match m with
            | Access.Pattern_exec.Term_join variant ->
              ignore (Exec.Par.term_join ~variant ~mode ~parallelism:2 ctx ~terms)
            | Access.Pattern_exec.Gen_meet _ ->
              ignore (Exec.Par.gen_meet ~mode ~parallelism:2 ctx ~terms)
            | Access.Pattern_exec.Comp1 | Access.Pattern_exec.Comp2 -> ());
      us
    | Engine.Phrase { phrase; _ } ->
      let words = Ir.Phrase.parse phrase in
      let us =
        access "access.phrase" (fun () ->
            List.length (Access.Phrase_finder.to_list ctx ~phrase:words))
      in
      par "exec.par_n" (fun () -> ignore (Exec.Par.phrase ~parallelism:2 ctx ~phrase:words));
      us
    | Engine.Ranked { terms } ->
      ignore (choose terms : Query.Planner.decision);
      let us =
        access "access.ranked" (fun () ->
            List.length (Access.Ranked.top_k_docs ctx ~terms ~k:rq.k))
      in
      par "exec.par_n" (fun () ->
          ignore (Exec.Par.top_k_docs ~parallelism:2 ctx ~terms ~k:rq.k));
      us
    | Engine.Query { q; _ } -> (
      match Layer.span "query.parse" (fun () -> Query.Parser.parse q) with
      | Error _ -> 0.
      | Ok ast -> (
        match
          Layer.span "query.compile" (fun () ->
              Result.map
                (Query.Compile.plan_with_stats ~feedback:snap.Engine.feedback db)
                (Query.Compile.compile ast))
        with
        | Error _ -> 0.
        | Ok plan ->
          Layer.add "access.occ"
            (List.fold_left
               (fun a t -> a +. float_of_int (Ir.Inverted_index.collection_freq idx t))
               0. plan.Query.Compile.terms);
          access "access.pattern" (fun () ->
              List.length (Query.Compile.execute db plan))))
  in
  if rq.par <> None && Layer.count "exec.par" > Layer.count "exec.seq" then
    Layer.add "exec.seq" seq_us;
  Layer.add "access.occ"
    (List.fold_left
       (fun a t -> a +. float_of_int (Ir.Inverted_index.collection_freq idx t))
       0. terms_of);
  Layer.span "ir.scan" (fun () ->
      List.iter
        (fun t ->
          Option.iter
            (fun p -> Ir.Postings.scan p (fun _ _ _ -> ()))
            (Ir.Inverted_index.lookup idx t))
        (match rq.req with
        | Engine.Query { q; _ } -> (
          match Query.Parser.parse q with
          | Ok ast -> (
            match Query.Compile.compile ast with
            | Ok plan -> plan.Query.Compile.terms
            | Error _ -> [])
          | Error _ -> [])
        | _ -> terms_of));
  match env.coord with
  | Some coord -> ignore (replay_dist ~coord ~shards:env.shards rq : Json.t)
  | None -> ()

(* The write path's layers, called directly on a side store over the
   same base image: Live.insert, the republish Updates performs
   (Engine.with_delta + Scheduler.reload) and the three checkpoint
   phases. *)
let replay_writes ~dir ~base_image ~pool ~n =
  let side = Filename.concat dir "side" in
  fresh_dir side;
  let base =
    match Store.Db.open_file base_image with
    | Ok db -> db
    | Error e -> fail "side base: %s" (Store.Db.error_to_string e)
  in
  let live =
    match Store.Live.open_dir ~base ~dir:side () with
    | Ok o -> o.Store.Live.live
    | Error e -> fail "side live: %s" (Store.Live.error_to_string e)
  in
  let snap0 = ok_or_fail "side snapshot" (Engine.of_db (Store.Live.base live)) in
  let sched = Scheduler.create ~workers:1 snap0 in
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched;
      Store.Live.close live)
    (fun () ->
      for i = 1 to n do
        let xml = pool.(i mod Array.length pool) in
        (match
           Layer.span "live.insert" (fun () ->
               Store.Live.insert live ~name:(Printf.sprintf "side-%d.xml" i) ~xml)
         with
        | Ok () -> ()
        | Error e -> fail "side insert: %s" (Store.Live.error_to_string e));
        Layer.span "updates.publish" (fun () ->
            let next =
              { (Engine.with_delta snap0 (Store.Live.delta live)) with Engine.generation = i }
            in
            ignore (Scheduler.reload sched next : (unit, Scheduler.reload_error) result))
      done;
      let ms name f =
        let v, us = measure f in
        Layer.add name (us /. 1000.);
        v
      in
      match ms "checkpoint.begin" (fun () -> Store.Live.checkpoint_begin live) with
      | Error e -> fail "side checkpoint: %s" (Store.Live.error_to_string e)
      | Ok tok -> (
        match ms "checkpoint.prepare" (fun () -> Store.Live.checkpoint_prepare live tok) with
        | Error e -> fail "side checkpoint: %s" (Store.Live.error_to_string e)
        | Ok (db, path) -> ms "checkpoint.install" (fun () -> Store.Live.checkpoint_install live db path)))

(* The write probe's store, served by a process of its own
   (--probe-serve) so that neither its checkpoints nor the reads'
   minor collections and connection threads of the serving process
   delay the other. It prints its port, serves until a line
   "SENT ACKED XML_BYTES" arrives on standard input (or the input
   ends), then checks the live documents against the model of SENT
   mutations and prints "WRONG CHECKED WRITE_AMP". *)
let probe_main o =
  let docs = probe_docs o in
  let dir = Filename.concat o.work "store" in
  fresh_dir dir;
  let env =
    setup_ingest ~dir ~docs
      ~every_docs:(every_docs o) ~traced:false
  in
  let ig = Option.get env.ingest in
  let meter = new_meter () in
  let th = Thread.create (meter_thread ig meter) () in
  Printf.printf "%d\n%!" env.port;
  let stop_meter () =
    Atomic.set meter.stop_meter true;
    Thread.join th
  in
  let report =
    match Scanf.sscanf (input_line stdin) " %d %d %d" (fun s a x -> (s, a, x)) with
    | exception End_of_file ->
      stop_meter ();
      None
    | sent, acked, xml_bytes ->
      let model, _, _ = writer o ~probe:true ~pool:(writer_pool o) ~docs ~skip:sent in
      let rqs =
        List.init 8 (let next = request_stream ~no_query:true (stream o "check") in fun _ -> next ())
      in
      let wrong, checked = check_ingest ~env ~model ~rqs in
      stop_meter ();
      Some (wrong, checked, write_amp ig meter { (new_writes ()) with acked; xml_bytes })
  in
  env.stop ();
  rm_rf o.work;
  Option.iter (fun (w, c, amp) -> Printf.printf "%d %d %.17g\n%!" w c amp) report

(* ------------------------------------------------------------------ *)
(* Runs *)

(* set-ups per run; the median is reported *)
let setups = 3
let check_samples = 48

type phase = {
  reads : reads;
  gc : Gc.stat * Gc.stat;
  lookups : Scheduler.stats * Scheduler.stats;
}

let sched_stats env =
  let all = List.map fst env.shards @ if env.shards = [] then [ env.sched ] else [] in
  let sum (a : Scheduler.stats) (b : Scheduler.stats) =
    let lru (x : Lru.stats) (y : Lru.stats) =
      { x with Lru.hits = x.Lru.hits + y.Lru.hits; misses = x.Lru.misses + y.Lru.misses }
    in
    {
      a with
      Scheduler.rejected = a.Scheduler.rejected + b.Scheduler.rejected;
      plan_cache = lru a.Scheduler.plan_cache b.Scheduler.plan_cache;
      result_cache = lru a.Scheduler.result_cache b.Scheduler.result_cache;
    }
  in
  match List.map Scheduler.stats all with
  | [] -> assert false
  | s :: rest -> List.fold_left sum s rest

let () =
  let o = parse_args () in
  if o.client then begin
    client_main o;
    exit 0
  end;
  if o.probe_serve then begin
    probe_main o;
    exit 0
  end;
  let hot = o.workload = "hot-repeat" and scatter = o.workload = "scatter" in
  let ingest_w = o.workload = "ingest-read" in
  let articles = articles_of o in
  let stream = stream o in
  let gen_s, docs = timed (fun () -> generate ~seed:o.seed ~articles ()) in
  let pool = writer_pool o in
  fresh_dir o.work;
  let dir = Filename.concat o.work "run" in
  fresh_dir dir;
  let setup () =
    if ingest_w then
      setup_ingest ~dir ~docs ~every_docs:(every_docs o) ~traced:o.trace
    else if scatter then setup_scatter ~dir ~docs
    else setup_read ~dir ~docs ~traced:o.trace
  in
  if o.setup_only then begin
    let dt, env = timed setup in
    env.stop ();
    rm_rf o.work;
    print_endline
      (Json.to_string
         (Json.Obj (("setup", Json.Float dt) :: List.map (fun (n, v) -> (n, Json.Float v)) env.parts)));
    exit 0
  end;
  (* Set up several times and report the median. All but the last
     set-up run in child processes of this program, so their heaps
     neither add to this process's peak RSS nor warm the one that
     serves; the last one serves the run. *)
  let child i =
    let args =
      [ Sys.executable_name; "--workload"; o.workload; "--seed"; string_of_int o.seed;
        "--trace"; (if o.trace then "1" else "0"); "--setup-only";
        "--work"; Filename.concat o.work (Printf.sprintf "setup-%d" i) ]
      @ if o.tiny then [ "--tiny" ] else []
    in
    let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> fail "set-up %d failed" i);
    let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
    match Json.parse last with
    | Ok (Json.Obj fields) ->
      List.map (fun (n, v) -> (n, Option.value ~default:nan (Json.to_float_opt v))) fields
    | _ -> fail "set-up %d printed %S" i last
  in
  let earlier = List.init (setups - 1) child in
  let dt, env = timed setup in
  let runs = (("setup", dt) :: env.parts) :: earlier in
  let median_of l =
    let s = Samples.create () in
    List.iter (Samples.add s) l;
    Samples.median s
  in
  let part name = median_of (List.map (List.assoc name) runs) in
  let setup_s = part "setup" in
  let image_bytes = List.fold_left (fun a p -> a + file_size p) 0 env.images in
  let xml_bytes = List.fold_left (fun a (_, t) -> a + String.length (xml_of t)) 0 docs in
  let attempted = ref 0 and failed = ref 0 in
  let hot_set = hot_set o in
  (* warm-up: one untimed pass over the request set after open *)
  let warm =
    if hot then Array.to_list hot_set
    else
      List.init n_terms (fun i ->
          make_rq ~k:10 ~family:"termjoin"
            (Engine.Search
               { terms = [ term i ]; method_ = Engine.Termjoin; complex = false; anchor = None }))
      @ List.init 32 (let next = request_stream (stream "warm") in fun _ -> next ())
  in
  let first_touch_ms, () =
    timed (fun () ->
        let c = connect env.port in
        Fun.protect
          ~finally:(fun () -> disconnect c)
          (fun () -> List.iter (fun rq -> ignore (roundtrip c rq.line : string)) warm))
  in
  let first_touch_ms = first_touch_ms *. 1000. in
  (* ingest: the writes and the WAL meter *)
  let writes = new_writes () in
  let meter = new_meter () in
  let meter_th = Option.map (fun ig -> Thread.create (meter_thread ig meter) ()) env.ingest in
  (* Write metrics of the read-only workloads: a probe writes beside the
     reads, on a schedule of its own, into a small side store served by
     a child process ([probe_main]). Spread over the whole timed phase,
     its latencies average over the host's bursts of stolen CPU and disk
     time as the read figures do; alone, an 8 s probe after the reads
     moved 2.5-fold with them. *)
  let probe =
    if ingest_w || o.trace then None
    else begin
      let args =
        [ Sys.executable_name; "--probe-serve"; "--workload"; o.workload;
          "--seed"; string_of_int o.seed; "--work"; Filename.concat o.work "probe" ]
        @ if o.tiny then [ "--tiny" ] else []
      in
      let ic, oc = Unix.open_process_args Sys.executable_name (Array.of_list args) in
      let port = int_of_string (String.trim (input_line ic)) in
      Some (ic, oc, port, new_writes ())
    end
  in
  let run_phase name ~duration ~traced =
    Gc.full_major ();
    Atomic.set tracing traced;
    let reads = new_reads () in
    let gc0 = Gc.quick_stat () and s0 = sched_stats env in
    (* ingest-read: how many delta documents a read finds, sampled *)
    let sampling = Atomic.make ingest_w in
    let sampler =
      Thread.create
        (fun () ->
          while Atomic.get sampling do
            Samples.add reads.delta_seen
              (match (Scheduler.snapshot env.sched).Engine.delta with
              | Some dv -> float_of_int dv.Engine.delta_docs
              | None -> 0.);
            Thread.delay 0.05
          done)
        ()
    in
    let write_port, w =
      match (env.ingest, probe) with
      | Some _, _ -> (env.port, writes)
      | None, Some (_, _, port, pw) -> (port, pw)
      | None, None -> (0, writes)
    in
    run_client o ~phase:name ~duration ~port:env.port ~write_port ~reads ~w
      ~record:(name <> "ramp");
    Atomic.set sampling false;
    Thread.join sampler;
    Atomic.set tracing false;
    { reads; gc = (gc0, Gc.quick_stat ()); lookups = (s0, sched_stats env) }
  in
  (* untimed load first: caches, the planner's feedback table, the
     heap and the delta settle before anything is recorded *)
  let ramp = run_phase "ramp" ~duration:(if o.tiny then 0.5 else 6.) ~traced:false in
  let phases =
    if o.trace then
      [ run_phase "untraced" ~duration:(o.seconds /. 2.) ~traced:false;
        run_phase "traced" ~duration:(o.seconds /. 2.) ~traced:true ]
    else [ run_phase "timed" ~duration:o.seconds ~traced:false ]
  in
  (* before the replay and the answer checks, whose rebuilds are the
     benchmark's own allocation *)
  let peak_rss_mb = vm_hwm_mb () in
  let p_last = List.nth phases (List.length phases - 1) in
  let p_first = List.hd phases in
  List.iter
    (fun p ->
      attempted := !attempted + p.reads.ok + p.reads.errors;
      failed := !failed + p.reads.errors)
    (ramp :: phases);
  attempted := !attempted + writes.sent;
  failed := !failed + writes.wfailed;
  (* the live documents the writes left, as the generator drew them *)
  let model, _, _ = writer o ~probe:false ~pool ~docs ~skip:writes.sent in
  let dist_answers = ref [] in
  (* traced runs: replay a sample of fresh requests layer by layer *)
  if o.trace then begin
    let snap = Scheduler.snapshot env.sched in
    let next = request_stream (stream "replay") in
    let rqs =
      if hot then Array.to_list hot_set else List.init 400 (fun _ -> next ())
    in
    let deadline = now () +. Float.min 4. (o.seconds /. 4.) in
    List.iter (fun rq -> if now () < deadline then replay_one ~env ~snap rq) rqs;
    if ingest_w then
      replay_writes ~dir ~base_image:(List.hd env.images) ~pool ~n:(if o.tiny then 4 else 20);
    (* read-mix also measures the distributed layer: the same corpus in
       two doc-range shards behind a coordinator, each replayed request's
       answer checked against this single node *)
    if o.workload = "read-mix" then begin
      let ddir = Filename.concat o.work "dist" in
      fresh_dir ddir;
      let denv = setup_scatter ~dir:ddir ~docs in
      Fun.protect ~finally:denv.stop (fun () ->
          let coord = Option.get denv.coord in
          List.iteri
            (fun i rq ->
              if i < 100 then
                dist_answers := (rq, replay_dist ~coord ~shards:denv.shards rq) :: !dist_answers)
            rqs)
    end
  end;
  (* answer checks *)
  let checked = ref 0 and wrong = ref 0 in
  let check_st = stream "check" in
  let check_rqs n =
    List.init n (let next = request_stream ~no_query:true check_st in fun _ -> next ())
  in
  let sample_kept () =
    let all = Array.of_list (List.concat_map (fun p -> p.reads.kept) (ramp :: phases)) in
    let n = Array.length all in
    shuffle check_st all;
    Array.to_list (Array.sub all 0 (min n check_samples))
  in
  let note ~what ~got ~expected =
    incr checked;
    if got <> expected then begin
      incr wrong;
      if !wrong <= 3 then
        Printf.eprintf "answer mismatch for %s\n  served:   %s\n  expected: %s\n%!" what got
          expected
    end
  in
  (if ingest_w then begin
     let bad, n =
       check_ingest ~env ~model ~rqs:(check_rqs 24)
     in
     checked := !checked + n;
     wrong := !wrong + bad
   end
   else if scatter then
     List.iter
       (fun (rq, resp) ->
         let expected = answer ~k:rq.k (Server.handle env.sched (exec_request rq)) in
         let got = if degraded resp then "degraded: " ^ resp else answer_of_line ~k:rq.k resp in
         note ~what:rq.line ~got ~expected)
       (sample_kept ())
   else begin
     let snap = Scheduler.snapshot env.sched in
     List.iter
       (fun (rq, resp) ->
         let got = if degraded (Json.to_string resp) then "degraded" else answer ~k:rq.k resp in
         note ~what:rq.line ~got ~expected:(oracle_answer snap rq))
       !dist_answers;
     let memo = Hashtbl.create 64 in
     List.iter
       (fun (rq, resp) ->
         let expected =
           match Hashtbl.find_opt memo rq.line with
           | Some a -> a
           | None ->
             let a = oracle_answer snap rq in
             Hashtbl.add memo rq.line a;
             a
         in
         note ~what:rq.line ~got:(answer_of_line ~k:rq.k resp) ~expected)
       (sample_kept ())
   end);
  Atomic.set meter.stop_meter true;
  Option.iter Thread.join meter_th;
  let live_bytes model =
    Hashtbl.fold
      (fun _ d a -> a + match d with Tree t -> String.length (xml_of t) | Xml x -> String.length x)
      model.docs 0
  in
  let space_amp =
    match env.ingest with
    | Some ig ->
      let image =
        if meter.ck_count > 0 then Store.Live.checkpoint_path ~dir:ig.wal_dir
        else List.hd env.images
      in
      float_of_int (file_size image + file_size (Store.Live.wal_path ~dir:ig.wal_dir))
      /. float_of_int (live_bytes model)
    | None -> float_of_int image_bytes /. float_of_int xml_bytes
  in
  let ingest_facts = Option.map (fun ig -> Store.Live.stats ig.live) env.ingest in
  let corpus = Store.Db.stats (Scheduler.snapshot env.sched).Engine.db in
  let shutdown () =
    env.stop ();
    rm_rf o.work
  in
  let probe_writes, probe_amp =
    match probe with
    | None -> (writes, 0.)
    | Some (ic, oc, _, pw) ->
      Printf.fprintf oc "%d %d %d\n%!" pw.sent pw.acked pw.xml_bytes;
      let bad, n, amp = Scanf.sscanf (input_line ic) " %d %d %f" (fun b n a -> (b, n, a)) in
      (match Unix.close_process (ic, oc) with
      | Unix.WEXITED 0 -> ()
      | _ -> fail "the write probe's store failed");
      checked := !checked + n;
      wrong := !wrong + bad;
      attempted := !attempted + pw.sent;
      failed := !failed + pw.wfailed;
      (pw, amp)
  in
  attempted := !attempted + !checked;
  failed := !failed + !wrong;
  (* The read rate and latencies are medians over [windows] equal
     slices of the phase. A burst of work from other tenants of a shared
     host then moves one slice's figure, not the run's. Write latencies
     are taken over the whole phase: a slice would hold too few writes
     for a p99 (~200, two beyond it). *)
  let windows = 5 in
  let read_stat p f =
    Samples.windowed ~windows ~span:p.reads.wall ~at:p.reads.at p.reads.lat f
  in
  let qps p =
    read_stat p (fun a -> float_of_int (Array.length a) *. float_of_int windows /. p.reads.wall)
  in
  let write_amp =
    match env.ingest with
    | Some ig -> write_amp ig meter writes
    | None -> probe_amp
  in
  let ms s = s *. 1000. in
  let info =
    Json.Obj
      [
        ("workload", Json.String o.workload);
        ("seed", Json.Int o.seed);
        ("seconds", Json.Float o.seconds);
        ("trace", Json.Bool o.trace);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("ocamlrunparam", Json.String (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
        ( "corpus",
          Json.Obj
            [
              ("articles", Json.Int articles);
              ("documents", Json.Int corpus.Store.Db.documents);
              ("elements", Json.Int corpus.Store.Db.elements);
              ("occurrences", Json.Int corpus.Store.Db.occurrences);
              ("image_bytes", Json.Int image_bytes);
              ("xml_bytes", Json.Int xml_bytes);
              ("generate_s", Json.Float gen_s);
            ] );
        ( "server",
          Json.Obj
            [
              ("workers", Json.Int (Scheduler.stats env.sched).Scheduler.workers);
              ("plan_cache", Json.Int (Scheduler.stats env.sched).Scheduler.plan_cache.Lru.capacity);
              ("result_cache", Json.Int (Scheduler.stats env.sched).Scheduler.result_cache.Lru.capacity);
              ("max_parallelism", Json.Int 1);
              ("shards", Json.Int (List.length env.shards));
              ("connections", Json.Int 1);
              ("load_generator", Json.String "a child process, one phase each");
            ] );
        ("wal_fs", Json.String (filesystem_of o.work));
        ("flush_policy", Json.String "fsync per acknowledged group-commit batch");
        ("write_rate", Json.Float write_rate);
        ("checkpoint_every_docs", Json.Int (every_docs o));
        ("read_samples", Json.Int (Samples.count p_last.reads.lat));
        ("write_samples", Json.Int (Samples.count probe_writes.wlat));
        ( "write_late_ms",
          Json.Obj
            [
              ("p50", Json.Float (ms (Samples.quantile probe_writes.late 0.5)));
              ("p99", Json.Float (ms (Samples.quantile probe_writes.late 0.99)));
              ("max", Json.Float (ms (Samples.quantile probe_writes.late 1.)));
            ] );
        ("checkpoints", Json.Int meter.ck_count);
        ( "families",
          Json.Obj
            (List.filter_map
               (fun f ->
                 let s = Layer.get ("family." ^ f) in
                 if Samples.count s = 0 then None
                 else
                   Some
                     ( f,
                       Json.Obj
                         [
                           ("n", Json.Int (Samples.count s));
                           ("p50_ms", Json.Float (ms (Samples.median s)));
                           ("p99_ms", Json.Float (ms (Samples.quantile s 0.99)));
                           ("mean_ms", Json.Float (ms (Samples.mean s)));
                         ] ))
               [ "termjoin"; "enhanced"; "genmeet"; "auto"; "pattern"; "phrase"; "ranked"; "query" ]) );
        ( "read_windows",
          let p = p_last in
          let col f = Samples.per_window ~windows ~span:p.reads.wall ~at:p.reads.at p.reads.lat f in
          Json.Obj
            [
              ("qps", Json.List (List.map (fun v -> Json.Float v)
                 (col (fun a -> float_of_int (Array.length a) *. float_of_int windows /. p.reads.wall))));
              ("p50_ms", Json.List (List.map (fun v -> Json.Float (ms v)) (col (fun a -> Samples.quantile_of a 0.5))));
              ("p99_ms", Json.List (List.map (fun v -> Json.Float (ms v)) (col (fun a -> Samples.quantile_of a 0.99))));
            ] );
        ("answers_checked", Json.Int !checked);
        ("answers_wrong", Json.Int !wrong);
      ]
  in
  print_endline (Json.to_string (Json.Obj [ ("info", info) ]));
  let fail_ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let metrics =
    if not o.trace then
      let p = p_last in
      [
        ("setup_s", "s", setup_s);
        ("read_qps", "req/s", qps p);
        ("read_p50_ms", "ms", ms (read_stat p (fun a -> Samples.quantile_of a 0.5)));
        ("read_p99_ms", "ms", ms (read_stat p (fun a -> Samples.quantile_of a 0.99)));
        ("write_docs_per_s", "ops/s", float_of_int probe_writes.measured /. Float.max 1e-9 probe_writes.span_s);
        ("write_p50_ms", "ms", ms (Samples.quantile probe_writes.wlat 0.5));
        ("write_p99_ms", "ms", ms (Samples.quantile probe_writes.wlat 0.99));
        ("peak_rss_mb", "MiB", peak_rss_mb);
        ("space_amp", "B/B", space_amp);
        ("write_amp", "B/B", write_amp);
      ]
    else begin
      let mean name = match Layer.count name with 0 -> 0. | n -> Layer.sum name /. float_of_int n in
      let per name den = match Layer.sum den with 0. -> 0. | d -> Layer.sum name /. d in
      let replayed = Float.max 1. (Layer.sum "replayed") in
      let gc0, gc1 = p_last.gc in
      let s0, s1 = p_last.lookups in
      let reqs = float_of_int (max 1 (Samples.count p_last.reads.lat)) in
      let lookups (a : Lru.stats) (b : Lru.stats) =
        (b.Lru.hits - a.Lru.hits, b.Lru.hits + b.Lru.misses - a.Lru.hits - a.Lru.misses)
      in
      let rh, rl = lookups s0.Scheduler.result_cache s1.Scheduler.result_cache in
      let ph, pl = lookups s0.Scheduler.plan_cache s1.Scheduler.plan_cache in
      let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
      let qw = Layer.get "queue_wait" in
      let server_side = if scatter then mean "dist.handle" else mean "submit_await" in
      let lf = Option.value ingest_facts ~default:
          { Store.Live.wal_records = 0; wal_bytes = 0; delta_documents = 0; tombstones = 0;
            checkpoints = 0; frozen_documents = 0; frozen_tombstones = 0;
            checkpoint_in_progress = false; gc_batches = 0; gc_records = 0; gc_largest_batch = 0 }
      in
      [
        ("wire.decode_us", "us", Layer.median "wire.decode");
        ("wire.encode_us", "us", Layer.median "wire.encode");
        ("wire.response_bytes", "B", Samples.mean p_last.reads.resp_bytes);
        ("wire.alloc_words", "words", Layer.sum "wire.alloc" /. replayed);
        ("scheduler.queue_wait_p50_us", "us", Samples.quantile qw 0.5);
        ("scheduler.queue_wait_p99_us", "us", Samples.quantile qw 0.99);
        ("scheduler.result_hit_ratio", "ratio", ratio rh rl);
        ("scheduler.result_lookups", "count", float_of_int rl);
        ("scheduler.plan_hit_ratio", "ratio", ratio ph pl);
        ("scheduler.plan_lookups", "count", float_of_int pl);
        ("scheduler.rejected", "count", float_of_int (s1.Scheduler.rejected - s0.Scheduler.rejected));
        ("query.parse_us", "us", Layer.median "query.parse");
        ("query.compile_us", "us", Layer.median "query.compile");
        ("planner.choose_us", "us", Layer.median "planner.choose");
        ("planner.est_over_actual", "ratio",
          (if Layer.count "planner.log_est_over_actual" = 0 then 0.
           else exp (mean "planner.log_est_over_actual")));
        ("access.termjoin_us", "us", Layer.median "access.termjoin");
        ("access.enhanced_us", "us", Layer.median "access.enhanced");
        ("access.genmeet_us", "us", Layer.median "access.genmeet");
        ("access.phrase_us", "us", Layer.median "access.phrase");
        ("access.ranked_us", "us", Layer.median "access.ranked");
        ("access.pattern_us", "us", Layer.median "access.pattern");
        ("access.alloc_words_per_row", "words", per "access.alloc" "access.rows");
        ("access.occ_per_row", "count", per "access.occ" "access.rows");
        ("ir.scan_us", "us", Layer.median "ir.scan");
        ("exec.par_us", "us", Layer.median "exec.par");
        ("exec.par_speedup", "x", per "exec.seq" "exec.par");
        ("engine.exec_us", "us", Layer.median "engine.exec");
        ("engine.overhead_us", "us", Layer.median "engine.overhead");
        ("engine.alloc_words_per_row", "words", per "engine.alloc" "engine.rows");
        ("engine.delta_overhead_us", "us", Layer.median "engine.delta_overhead");
        ("store.build_s", "s", part "build");
        ("store.save_s", "s", part "save");
        ("store.open_s", "s", part "open");
        ("store.first_touch_ms", "ms", first_touch_ms);
        ("store.image_bytes", "B", float_of_int image_bytes);
        ("live.insert_us", "us", Layer.median "live.insert");
        ("updates.publish_us", "us", Layer.median "updates.publish");
        ("wal.fsyncs_per_write", "ratio", ratio lf.Store.Live.gc_batches lf.Store.Live.gc_records);
        ("wal.gc_batches", "count", float_of_int lf.Store.Live.gc_batches);
        ("wal.gc_records", "count", float_of_int lf.Store.Live.gc_records);
        ("wal.bytes_per_write", "B", ratio lf.Store.Live.wal_bytes lf.Store.Live.wal_records);
        ("checkpoint.begin_ms", "ms", Layer.median "checkpoint.begin");
        ("checkpoint.prepare_ms", "ms", Layer.median "checkpoint.prepare");
        ("checkpoint.install_ms", "ms", Layer.median "checkpoint.install");
        ("checkpoint.count", "count", float_of_int meter.ck_count);
        ("checkpoint.bytes", "B", float_of_int meter.ck_bytes);
        ("delta.docs_seen", "count", Samples.mean p_last.reads.delta_seen);
        ("dist.handle_us", "us", Layer.median "dist.handle");
        ("dist.shard_us_max", "us", Layer.median "dist.shard_max");
        ("dist.merge_us", "us", Layer.median "dist.merge");
        ("dist.rows_shipped_per_row", "ratio", per "dist.shipped" "dist.returned");
        ("dist.reconnects", "count",
          float_of_int (match env.coord with Some c -> Dist.Client.reconnects (Dist.Coordinator.client c) | None -> 0));
        ("dist.degraded", "count",
          float_of_int (match env.coord with Some c -> Dist.Coordinator.degraded_served c | None -> 0));
        ("gc.minor_words_per_req", "words", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. reqs);
        ("gc.minor_gcs_per_req", "count",
          float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. reqs);
        ("gc.major_gcs", "count", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("server.unattributed_us", "us",
          (Samples.mean p_last.reads.lat *. 1e6) -. server_side -. mean "wire.decode" -. mean "wire.encode");
        ("trace.overhead_p50_ms", "ms",
          ms (Samples.quantile p_last.reads.lat 0.5 -. Samples.quantile p_first.reads.lat 0.5));
        ("trace.overhead_qps", "req/s", qps p_last -. qps p_first);
        ("fail_ratio", "fraction", fail_ratio);
      ]
    end
  in
  shutdown ();
  print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics

exception Error of string

type t = {
  db : Store.Db.t;
  fns : Functions.t;
  doc_trees : (int, Core.Stree.t) Hashtbl.t;
  limits : Core.Governor.limits;
  trace : Core.Trace.t;
  mutable governor : Core.Governor.t option;
      (** live only while a query runs: each {!run} starts a fresh
          governor from [limits], so budgets are per query and an
          exhausted query leaves the evaluator reusable *)
  mutable last_steps : int;
      (** steps consumed by the most recent {!run}, finished or not *)
}

let create ?functions ?(limits = Core.Governor.unlimited)
    ?(trace = Core.Trace.disabled) db =
  let fns = match functions with Some f -> f | None -> Functions.builtins () in
  {
    db;
    fns;
    doc_trees = Hashtbl.create 8;
    limits;
    trace;
    governor = None;
    last_steps = 0;
  }

let functions t = t.fns
let last_steps t = t.last_steps

let tick t =
  match t.governor with Some g -> Core.Governor.tick g | None -> ()

let check_results t n =
  match t.governor with
  | Some g -> Core.Governor.check_results g n
  | None -> ()

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type env = (string * Functions.value) list

let fctx t = { Functions.db = t.db }

let doc_tree t doc =
  match Hashtbl.find_opt t.doc_trees doc with
  | Some tree -> tree
  | None -> begin
    match Store.Db.numbering t.db ~doc with
    | Some num ->
      let tree = Core.Stree.of_numbered num ~doc in
      Hashtbl.replace t.doc_trees doc tree;
      tree
    | None ->
      fail "document %d was loaded without keep_trees; cannot navigate it" doc
  end

let documents_matching t pattern =
  let catalog = Store.Db.catalog t.db in
  let rec collect doc acc =
    if doc >= Store.Catalog.document_count catalog then List.rev acc
    else begin
      let name = Store.Catalog.document_name catalog doc in
      let acc =
        if Glob.matches pattern name then doc :: acc else acc
      in
      collect (doc + 1) acc
    end
  in
  collect 0 []

(* the synthetic document wrapper is never a query binding *)
let drop_wrapper nodes =
  List.filter (fun (n : Core.Stree.t) -> n.tag <> "#document") nodes

let lookup env v =
  match List.assoc_opt v env with
  | Some value -> value
  | None -> fail "unbound variable $%s" v

(* ------------------------------------------------------------------ *)
(* values and comparison *)

let string_of_nodes ns = String.concat " " (List.map Core.Stree.all_text ns)

let atomize = function
  | Functions.Nodes ns -> List.map (fun n -> Functions.Nodes [ n ]) ns
  | v -> [ v ]

let atom_string = function
  | Functions.Nodes ns -> string_of_nodes ns
  | v -> Functions.to_string_value v

let atom_float v =
  match v with
  | Functions.Nodes [ n ] -> begin
    (* prefer the score when asked for a number of a scored node,
       otherwise parse its text *)
    match float_of_string_opt (String.trim (Core.Stree.all_text n)) with
    | Some f -> f
    | None -> Core.Stree.score n
  end
  | v -> Functions.to_float v

let compare_atoms cmp a b =
  let num =
    match atom_float a, atom_float b with
    | fa, fb -> Some (compare fa fb)
    | exception Invalid_argument _ -> None
  in
  let c =
    match num with
    | Some c -> c
    | None -> compare (atom_string a) (atom_string b)
  in
  match cmp with
  | Ast.Eq ->
    (* string equality is the natural reading for = *)
    atom_string a = atom_string b || c = 0
  | Ast.Neq -> atom_string a <> atom_string b
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* existential comparison over node sequences, XPath-style *)
let compare_values cmp a b =
  List.exists
    (fun x -> List.exists (fun y -> compare_atoms cmp x y) (atomize b))
    (atomize a)

(* ------------------------------------------------------------------ *)
(* paths *)

let rec eval_expr t (env : env) (expr : Ast.expr) : Functions.value =
  tick t;
  match expr with
  | Ast.Document pattern -> begin
    match documents_matching t pattern with
    | [] -> fail "document(%S): no loaded document matches" pattern
    | docs ->
      (* wrap each root in a document node, as in XPath, so that
         //root-tag matches the root element itself *)
      Functions.Nodes
        (List.map
           (fun doc ->
             Core.Stree.make "#document"
               [ Core.Stree.Node (doc_tree t doc) ])
           docs)
  end
  | Ast.Var v -> lookup env v
  | Ast.String_lit s -> Functions.Str s
  | Ast.Number_lit f -> Functions.Num f
  | Ast.String_set ss -> Functions.Str_list ss
  | Ast.Call (f, args) -> begin
    match Functions.general t.fns f with
    | Some fn -> fn (fctx t) (List.map (eval_expr t env) args)
    | None -> fail "unknown function %s" f
  end
  | Ast.Cmp (c, a, b) ->
    Functions.Bool (compare_values c (eval_expr t env a) (eval_expr t env b))
  | Ast.And (a, b) ->
    Functions.Bool
      (Functions.to_bool (eval_expr t env a)
      && Functions.to_bool (eval_expr t env b))
  | Ast.Or (a, b) ->
    Functions.Bool
      (Functions.to_bool (eval_expr t env a)
      || Functions.to_bool (eval_expr t env b))
  | Ast.Path (base, steps) ->
    let v = eval_expr t env base in
    eval_steps t env v steps

and eval_steps t env value steps =
  tick t;
  match steps with
  | [] -> value
  | step :: rest -> begin
    match step.Ast.step_axis with
    | Ast.Text -> begin
      match value with
      | Functions.Nodes ns ->
        let text =
          String.concat " "
            (List.filter_map
               (fun (n : Core.Stree.t) ->
                 let direct =
                   List.filter_map
                     (function
                       | Core.Stree.Content s -> Some s
                       | Core.Stree.Node _ -> None)
                     n.children
                 in
                 match direct with [] -> None | l -> Some (String.concat " " l))
               ns)
        in
        eval_steps t env (Functions.Str text) rest
      | _ -> fail "text() applied to a non-node"
    end
    | Ast.Attribute name -> begin
      match value with
      | Functions.Nodes ns ->
        let v =
          match ns with
          | [] -> Functions.Str ""
          | (n : Core.Stree.t) :: _ ->
            if name = "score" then Functions.Num (Core.Stree.score n)
            else
              Functions.Str
                (Option.value ~default:"" (List.assoc_opt name n.attrs))
        in
        eval_steps t env v rest
      | _ -> fail "@%s applied to a non-node" name
    end
    | Ast.Child name -> begin
      match value with
      | Functions.Nodes ns ->
        let selected =
          List.concat_map
            (fun n ->
              List.filter
                (fun (c : Core.Stree.t) -> name = "*" || c.tag = name)
                (Core.Stree.child_nodes n))
            ns
          |> drop_wrapper
        in
        List.iter (fun _ -> tick t) selected;
        let filtered = apply_predicates t env step.Ast.predicates selected in
        eval_steps t env (Functions.Nodes filtered) rest
      | _ -> fail "/%s applied to a non-node" name
    end
    | Ast.Descendant name -> begin
      match value with
      | Functions.Nodes ns ->
        let selected =
          List.concat_map
            (fun n ->
              List.filter
                (fun (c : Core.Stree.t) ->
                  (name = "*" || c.tag = name) && not (c == n))
                (Core.Stree.self_or_descendants n))
            ns
          |> drop_wrapper
        in
        List.iter (fun _ -> tick t) selected;
        let filtered = apply_predicates t env step.Ast.predicates selected in
        eval_steps t env (Functions.Nodes filtered) rest
      | _ -> fail "//%s applied to a non-node" name
    end
    | Ast.Self_or_descendant -> begin
      match value with
      | Functions.Nodes ns ->
        let selected =
          drop_wrapper (List.concat_map Core.Stree.self_or_descendants ns)
        in
        List.iter (fun _ -> tick t) selected;
        let filtered = apply_predicates t env step.Ast.predicates selected in
        eval_steps t env (Functions.Nodes filtered) rest
      | _ -> fail "descendant-or-self applied to a non-node"
    end
  end

and apply_predicates t env preds nodes =
  List.fold_left
    (fun nodes pred ->
      List.filter
        (fun node ->
          tick t;
          let env = ("." , Functions.Nodes [ node ]) :: env in
          match pred with
          | Ast.Pred_cmp (c, a, b) ->
            compare_values c (eval_expr t env a) (eval_expr t env b)
          | Ast.Pred_exists e -> Functions.to_bool (eval_expr t env e))
        nodes)
    nodes preds

(* ------------------------------------------------------------------ *)
(* clauses *)

let single_node v =
  match v with
  | Functions.Nodes [ n ] -> n
  | Functions.Nodes ns -> fail "expected one node, got %d" (List.length ns)
  | Functions.Str _ | Functions.Num _ | Functions.Bool _
  | Functions.Str_list _ ->
    fail "expected a node value"

let node_key (n : Core.Stree.t) =
  match n.id with
  | Core.Stree.Stored { doc; start } -> Some (doc, start)
  | Core.Stree.Synthetic _ -> None

let eval_pick t envs v fname args =
  let criterion =
    match Functions.pick t.fns fname with
    | Some fn ->
      (* the conventional first argument is the picked variable
         itself; criterion construction only needs the rest *)
      let const_args =
        List.filter (function Ast.Var v' -> v' <> v | _ -> true) args
      in
      fn (fctx t)
        (List.map
           (eval_expr t (match envs with e :: _ -> e | [] -> []))
           const_args)
    | None -> fail "unknown pick function %s" fname
  in
  if envs = [] then []
  else begin
    (* Candidate set and score map over all bindings of $v.
       Zero-scored bindings are dropped first — Pick is defined over
       the output of a projection, which removes zero-score nodes
       (Sec. 3.3.2 / Fig. 6). *)
    let scores : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
    let docs = Hashtbl.create 8 in
    List.iter
      (fun env ->
        let n = single_node (lookup env v) in
        match node_key n with
        | Some key ->
          (match n.Core.Stree.score with
          | Some s when s > 0. ->
            Hashtbl.replace scores key s;
            Hashtbl.replace docs (fst key) ()
          | Some _ | None -> ())
        | None -> ())
      envs;
    (* For each involved document: annotate the tree with the scores,
       prune it down to the candidates (the projection step), then
       run the stack-based Pick. *)
    let returned : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun doc () ->
        let kept (n : Core.Stree.t) =
          match node_key n with
          | Some key -> Hashtbl.mem scores key
          | None -> false
        in
        let rec prune (n : Core.Stree.t) : Core.Stree.child list =
          let is_kept = kept n in
          let children =
            List.concat_map
              (fun c ->
                match c with
                | Core.Stree.Node m -> prune m
                | Core.Stree.Content s ->
                  if is_kept then [ Core.Stree.Content s ] else [])
              n.children
          in
          if is_kept then begin
            let score =
              match node_key n with
              | Some key -> Hashtbl.find_opt scores key
              | None -> None
            in
            [ Core.Stree.Node { n with score; children } ]
          end
          else children
        in
        let root = doc_tree t doc in
        let root_score =
          match node_key root with
          | Some key -> Hashtbl.find_opt scores key
          | None -> None
        in
        let tree =
          {
            root with
            score = root_score;
            children =
              List.concat_map
                (fun c ->
                  match c with
                  | Core.Stree.Node m -> prune m
                  | Core.Stree.Content s -> [ Core.Stree.Content s ])
                root.children;
          }
        in
        let candidates = kept in
        let picked = Access.Pick_stack.returned criterion ~candidates tree in
        List.iter
          (fun (n : Core.Stree.t) ->
            match node_key n with
            | Some key -> Hashtbl.replace returned key ()
            | None -> ())
          picked)
      docs;
    List.filter
      (fun env ->
        let n = single_node (lookup env v) in
        match node_key n with
        | Some key -> Hashtbl.mem returned key
        | None -> true)
      envs
  end

let clause_name = function
  | Ast.For (v, _) -> "For $" ^ v
  | Ast.Let (v, _) -> "Let $" ^ v
  | Ast.Where _ -> "Where"
  | Ast.Score (v, _, _) -> "Score $" ^ v
  | Ast.Pick (v, _, _) -> "Pick $" ^ v

let rec eval_clause t (envs : env list) (clause : Ast.clause) : env list =
  let out =
    if Core.Trace.enabled t.trace then
      Core.Trace.span_over ?governor:t.governor t.trace (clause_name clause)
        envs
        (fun envs -> eval_clause_inner t envs clause)
    else eval_clause_inner t envs clause
  in
  (* the binding stream between clauses is the materialization the
     cardinality cap governs *)
  check_results t (List.length out);
  out

and eval_clause_inner t (envs : env list) (clause : Ast.clause) : env list =
  match clause with
  | Ast.For (v, e) ->
    List.concat_map
      (fun env ->
        tick t;
        match eval_expr t env e with
        | Functions.Nodes ns ->
          List.map (fun n -> (v, Functions.Nodes [ n ]) :: env) ns
        | Functions.Str_list ss ->
          List.map (fun s -> (v, Functions.Str s) :: env) ss
        | Functions.Str _ | Functions.Num _ | Functions.Bool _ ->
          fail "for $%s: expression is not a sequence" v)
      envs
  | Ast.Let (v, e) ->
    List.map (fun env -> (v, eval_expr t env e) :: env) envs
  | Ast.Where e ->
    List.filter (fun env -> Functions.to_bool (eval_expr t env e)) envs
  | Ast.Score (v, fname, args) -> begin
    match Functions.scoring t.fns fname with
    | None -> fail "unknown scoring function %s" fname
    | Some fn ->
      List.map
        (fun env ->
          let node = single_node (lookup env v) in
          let args = List.map (eval_expr t env) args in
          let score = fn (fctx t) args in
          (v, Functions.Nodes [ Core.Stree.with_score node score ]) :: env)
        envs
  end
  | Ast.Pick (v, fname, args) -> eval_pick t envs v fname args

(* ------------------------------------------------------------------ *)
(* return construction *)

let rec build_constructor t env (Ast.Elem_cons (name, attrs, children)) :
    Xmlkit.Tree.element =
  let attributes =
    List.map
      (fun (k, e) -> (k, Functions.to_string_value (eval_expr t env e)))
      attrs
  in
  let contents =
    List.concat_map
      (fun c ->
        match c with
        | Ast.Const_text s -> [ Xmlkit.Tree.Text s ]
        | Ast.Nested c -> [ Xmlkit.Tree.Element (build_constructor t env c) ]
        | Ast.Embedded e -> begin
          match eval_expr t env e with
          | Functions.Nodes ns ->
            List.map
              (fun n -> Xmlkit.Tree.Element (Core.Stree.to_element n))
              ns
          | v -> [ Xmlkit.Tree.Text (Functions.to_string_value v) ]
        end)
      children
  in
  Xmlkit.Tree.elem ~attrs:attributes name contents

let sort_results field results =
  let key (e : Xmlkit.Tree.element) =
    let child =
      List.find_map
        (fun n ->
          match n with
          | Xmlkit.Tree.Element c when c.Xmlkit.Tree.tag = field -> Some c
          | Xmlkit.Tree.Element _ | Xmlkit.Tree.Text _ | Xmlkit.Tree.Comment _
          | Xmlkit.Tree.Pi _ ->
            None)
        e.Xmlkit.Tree.children
    in
    match child with
    | Some c ->
      Option.value ~default:neg_infinity
        (float_of_string_opt (String.trim (Xmlkit.Tree.all_text c)))
    | None -> neg_infinity
  in
  List.stable_sort (fun a b -> compare (key b) (key a)) results

let run_ungoverned t (q : Ast.t) =
  let envs = List.fold_left (eval_clause t) [ [] ] q.clauses in
  (* threshold filters bindings before construction *)
  let envs =
    match q.thresh with
    | Some th ->
      List.filter
        (fun env ->
          compare_values th.t_cmp
            (eval_expr t env th.t_expr)
            (Functions.Num th.t_value))
        envs
    | None -> envs
  in
  let results = List.map (fun env -> build_constructor t env q.returns) envs in
  let results =
    match q.sortby with
    | Some field -> sort_results field results
    | None -> results
  in
  match q.thresh with
  | Some { stop_after = Some k; _ } ->
    List.filteri (fun i _ -> i < k) results
  | Some { stop_after = None; _ } | None -> results

let run ?governor t (q : Ast.t) =
  (* A fresh governor per query: exhaustion aborts this run only and
     leaves the evaluator (and its database) usable afterwards. *)
  let gov =
    match governor with Some g -> g | None -> Core.Governor.start t.limits
  in
  t.governor <- Some gov;
  Fun.protect
    ~finally:(fun () ->
      t.last_steps <- Core.Governor.steps gov;
      t.governor <- None)
    (fun () ->
      Core.Trace.enter ~governor:gov t.trace "Eval";
      match run_ungoverned t q with
      | results ->
        (* the clock is sampled sparsely during evaluation; settle the
           deadline before handing results back *)
        Core.Governor.check_deadline gov;
        if Core.Trace.enabled t.trace then
          Core.Trace.leave ~output:(List.length results) ~governor:gov t.trace;
        results
      | exception e ->
        Core.Trace.unwind t.trace;
        raise e)

let run_string t src =
  match Parser.parse src with
  | Result.Error e ->
    Result.Error (Format.asprintf "parse error: %a" Parser.pp_error e)
  | Result.Ok q -> begin
    match run t q with
    | results -> Result.Ok results
    | exception Error msg -> Result.Error msg
    | exception Core.Governor.Resource_exhausted v ->
      Result.Error (Core.Governor.violation_to_string v)
    | exception Store.Pager.Read_error e ->
      Result.Error
        (Format.asprintf "storage error: %a" Store.Pager.pp_read_error e)
  end

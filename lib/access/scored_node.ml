type t = {
  doc : int;
  start : int;
  end_ : int;
  level : int;
  tag : int;
  score : float;
}

let compare_pos a b =
  match compare a.doc b.doc with 0 -> compare a.start b.start | c -> c

let compare_score_desc a b =
  match compare b.score a.score with 0 -> compare_pos a b | c -> c

let rank_tie a b =
  match Int.compare b.doc a.doc with 0 -> Int.compare b.start a.start | c -> c

let equal a b = compare a b = 0

let pp ppf t =
  Format.fprintf ppf "{doc=%d [%d,%d] lvl=%d tag=%d score=%.4f}" t.doc t.start
    t.end_ t.level t.tag t.score

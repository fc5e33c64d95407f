(* The heap arrays start empty and double on demand up to [capacity],
   so a large K (or [max_int], "keep everything") costs only what is
   actually retained. The first added item fills fresh slots, which
   keeps the slots unboxed instead of ['a option]. *)
type 'a t = {
  capacity : int;
  tie : 'a -> 'a -> int;
  mutable scores : float array;
  mutable items : 'a array;
  mutable size : int;
}

let create ?(tie = fun _ _ -> 0) capacity =
  if capacity <= 0 then invalid_arg "Top_k.create";
  { capacity; tie; scores = [||]; items = [||]; size = 0 }

let grow t item =
  let len = Array.length t.items in
  let len' = min t.capacity (max 8 (2 * len)) in
  let scores = Array.make len' 0. and items = Array.make len' item in
  Array.blit t.scores 0 scores 0 t.size;
  Array.blit t.items 0 items 0 t.size;
  t.scores <- scores;
  t.items <- items

let swap t i j =
  let s = t.scores.(i) in
  t.scores.(i) <- t.scores.(j);
  t.scores.(j) <- s;
  let it = t.items.(i) in
  t.items.(i) <- t.items.(j);
  t.items.(j) <- it

(* entry [i] ranks strictly below entry [j]: lower score, or the tie
   order on equal scores — the root is then the unique worst entry,
   so eviction is deterministic even among tied scores *)
let below t i j =
  t.scores.(i) < t.scores.(j)
  || (t.scores.(i) = t.scores.(j) && t.tie t.items.(i) t.items.(j) < 0)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if below t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && below t l !smallest then smallest := l;
  if r < t.size && below t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add t ~score item =
  if t.size < t.capacity then begin
    if t.size = Array.length t.items then grow t item;
    t.scores.(t.size) <- score;
    t.items.(t.size) <- item;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end
  else if
    score > t.scores.(0)
    || (score = t.scores.(0) && t.tie item t.items.(0) > 0)
  then begin
    t.scores.(0) <- score;
    t.items.(0) <- item;
    sift_down t 0
  end

let count t = t.size
let cutoff t = if t.size < t.capacity then None else Some t.scores.(0)
let would_enter t score = t.size < t.capacity || score > t.scores.(0)
let admits t score = t.size < t.capacity || score >= t.scores.(0)

let to_sorted_list t =
  let entries = ref [] in
  for i = 0 to t.size - 1 do
    entries := (t.scores.(i), t.items.(i)) :: !entries
  done;
  List.sort
    (fun (a, x) (b, y) -> match compare b a with 0 -> t.tie y x | c -> c)
    !entries

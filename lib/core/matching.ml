module Range = Rangeset.Range

type scored = {
  entry : Store.entry;
  score : float;
  jaccard : float;
  recall : float;
}

let score matching ~query entry =
  let jaccard = Range.jaccard query entry.Store.range in
  let recall = Range.containment ~query ~answer:entry.Store.range in
  let score =
    match matching with
    | Config.Jaccard_match -> jaccard
    | Config.Containment_match -> recall
  in
  { entry; score; jaccard; recall }

let better a b =
  if a.score > b.score then a
  else if b.score > a.score then b
  else if
    Range.cardinal a.entry.Store.range <= Range.cardinal b.entry.Store.range
  then a
  else b

(* The running best of one selection pass, held as ints so that a step
   allocates nothing: no record per candidate, and no float crosses a
   call, where it would be boxed. *)
type pick = {
  matching : Config.matching;
  query : Range.t;
  query_card : int;
  mutable best : Store.entry;  (* meaningful once [best_inter > 0] *)
  mutable best_inter : int;  (* |query ∩ best|; 0 until a candidate overlaps *)
  mutable best_card : int;
}

(* [score]'s float for a candidate that overlaps the query by [inter] > 0
   values, rebuilt from ints with the expressions of [Range.jaccard] and
   [Range.containment], in the same order: equal ints give bit-equal
   floats, so every comparison sees the value [score] would have produced.
   Inlined, so the float is never boxed. *)
let[@inline] measure matching ~query_card ~inter ~card =
  match matching with
  | Config.Jaccard_match ->
    float_of_int inter /. float_of_int (query_card + card - inter)
  | Config.Containment_match -> float_of_int inter /. float_of_int query_card

(* Whether a candidate overlapping the query by [inter] values, of
   cardinality [card], displaces the current best: [better]'s order with
   the current best first, so a higher score wins, and an equal score
   wins only with a smaller range. *)
let displaces p ~inter ~card =
  let s = measure p.matching ~query_card:p.query_card ~inter ~card
  and b =
    measure p.matching ~query_card:p.query_card ~inter:p.best_inter
      ~card:p.best_card
  in
  s > b || (s = b && card < p.best_card)

(* A zero overlap scores exactly 0.0 under either measure and a positive
   one scores above it, so skipping [inter = 0] is the [score > 0.0]
   filter that keeps disjoint candidates out. *)
let consider p entry =
  let inter = Range.overlap_cardinal p.query entry.Store.range in
  (if inter > 0 then
     let card = Range.cardinal entry.Store.range in
     if p.best_inter = 0 || displaces p ~inter ~card then begin
       p.best <- entry;
       p.best_inter <- inter;
       p.best_card <- card
     end);
  p

(* Stands in for [best] until a candidate overlaps the query. *)
let no_entry = { Store.range = Range.point 0; partition = None }

let select matching ~query fold =
  let p =
    fold consider
      {
        matching;
        query;
        query_card = Range.cardinal query;
        best = no_entry;
        best_inter = 0;
        best_card = 0;
      }
  in
  if p.best_inter = 0 then None else Some (score matching ~query p.best)

let best matching ~query entries =
  select matching ~query (fun step init -> List.fold_left step init entries)

let is_exact ~query scored = Range.equal scored.entry.Store.range query

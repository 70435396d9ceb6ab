(* Best-match selection: scoring under both policies, tie-breaking,
   disjoint-candidate rejection, exactness. *)

module Range = Rangeset.Range
module M = P2prange.Matching

let mk lo hi = Range.make ~lo ~hi
let entry lo hi = { P2prange.Store.range = mk lo hi; partition = None }

let query = mk 30 50

let scores_both_measures () =
  let s = M.score P2prange.Config.Jaccard_match ~query (entry 30 49) in
  Alcotest.(check (float 1e-9)) "jaccard 20/21" (20.0 /. 21.0) s.M.jaccard;
  Alcotest.(check (float 1e-9)) "recall 20/21" (20.0 /. 21.0) s.M.recall;
  Alcotest.(check (float 1e-9)) "score follows policy" s.M.jaccard s.M.score;
  let s' = M.score P2prange.Config.Containment_match ~query (entry 0 1000) in
  Alcotest.(check (float 1e-9)) "broad range: full recall" 1.0 s'.M.recall;
  Alcotest.(check (float 1e-9)) "containment score = recall" 1.0 s'.M.score;
  Alcotest.(check bool) "but poor jaccard" true (s'.M.jaccard < 0.05)

let policies_pick_differently () =
  (* Candidate A: nearly identical (high Jaccard, recall < 1).
     Candidate B: broad superset (low Jaccard, recall = 1). *)
  let a = entry 31 51 and b = entry 0 500 in
  (match M.best P2prange.Config.Jaccard_match ~query [ a; b ] with
  | Some s ->
    Alcotest.(check bool) "jaccard prefers the twin" true
      (Range.equal s.M.entry.P2prange.Store.range (mk 31 51))
  | None -> Alcotest.fail "must match");
  match M.best P2prange.Config.Containment_match ~query [ a; b ] with
  | Some s ->
    Alcotest.(check bool) "containment prefers the superset" true
      (Range.equal s.M.entry.P2prange.Store.range (mk 0 500))
  | None -> Alcotest.fail "must match"

let disjoint_candidates_rejected () =
  Alcotest.(check bool) "no match among disjoint" true
    (M.best P2prange.Config.Jaccard_match ~query [ entry 100 200; entry 300 400 ]
    = None);
  Alcotest.(check bool) "empty list" true
    (M.best P2prange.Config.Jaccard_match ~query [] = None)

let tie_breaks_toward_smaller () =
  (* Two supersets with recall 1: containment must prefer the smaller
     (less data shipped). *)
  let small = entry 25 55 and big = entry 0 1000 in
  match M.best P2prange.Config.Containment_match ~query [ big; small ] with
  | Some s ->
    Alcotest.(check bool) "smaller superset wins the tie" true
      (Range.equal s.M.entry.P2prange.Store.range (mk 25 55))
  | None -> Alcotest.fail "must match"

let exactness () =
  let e = M.score P2prange.Config.Jaccard_match ~query (entry 30 50) in
  Alcotest.(check bool) "exact" true (M.is_exact ~query e);
  let near = M.score P2prange.Config.Jaccard_match ~query (entry 30 51) in
  Alcotest.(check bool) "near is not exact" false (M.is_exact ~query near)

let best_is_max_score () =
  let candidates = [ entry 10 70; entry 28 52; entry 30 49; entry 45 90 ] in
  match M.best P2prange.Config.Jaccard_match ~query candidates with
  | Some s ->
    List.iter
      (fun c ->
        let c' = M.score P2prange.Config.Jaccard_match ~query c in
        Alcotest.(check bool) "no candidate beats the winner" true
          (c'.M.score <= s.M.score +. 1e-12))
      candidates
  | None -> Alcotest.fail "must match"

(* The selection as it was before the single pass — score every candidate
   into a record, drop the zeros, fold [better] — kept as the reference
   the pass must reproduce entry for entry and bit for bit. *)
let oracle_best matching ~query entries =
  let scored = List.map (M.score matching ~query) entries in
  match List.filter (fun s -> s.M.score > 0.0) scored with
  | [] -> None
  | first :: rest -> Some (List.fold_left M.better first rest)

let policies = P2prange.Config.[ Jaccard_match; Containment_match ]

let policy_name = function
  | P2prange.Config.Jaccard_match -> "jaccard"
  | P2prange.Config.Containment_match -> "containment"

let bits = Int64.bits_of_float

(* Same physical entry, same score bits — not merely equal ranges. *)
let same_pick a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.M.entry == b.M.entry
    && bits a.M.score = bits b.M.score
    && bits a.M.jaccard = bits b.M.jaccard
    && bits a.M.recall = bits b.M.recall
  | None, Some _ | Some _, None -> false

let show_ranges rs =
  String.concat ";"
    (List.map (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi) rs)

(* Buckets full of ties. Each candidate is a fresh range, a copy of an
   earlier one (an equal range in a new record), or an earlier one
   mirrored about the query's centre: equal cardinality, equal overlap,
   so an equal score under both measures. A small domain makes equal
   scores between unrelated ranges common too, and nested ranges tie at
   recall 1 under containment with different cardinalities. *)
let bucket_gen =
  QCheck.Gen.(
    let range =
      let* a = int_range 0 60 in
      let* b = int_range 0 60 in
      return (min a b, max a b)
    in
    let* query = range in
    let* n = int_range 0 40 in
    let rec grow acc k =
      if k = 0 then return (query, List.rev acc)
      else
        let* pick = int_range 0 3 in
        let* next =
          match (pick, acc) with
          | 1, _ :: _ -> map (fun i -> List.nth acc (i mod List.length acc)) nat
          | 2, _ :: _ ->
            let qlo, qhi = query in
            map
              (fun i ->
                let lo, hi = List.nth acc (i mod List.length acc) in
                (qlo + qhi - hi, qlo + qhi - lo))
              nat
          | _ -> range
        in
        grow (next :: acc) (k - 1)
    in
    grow [] n)

let arb_bucket =
  QCheck.make
    ~print:(fun ((qlo, qhi), rs) ->
      Printf.sprintf "query [%d,%d] bucket %s" qlo qhi (show_ranges rs))
    bucket_gen

(* The list pass and the fold over a store both pick what the reference
   picks. A store keeps one entry per range and lists its bucket newest
   first, so its reference runs over [peek_bucket] of the same store. *)
let prop_single_pass_matches_oracle =
  QCheck.Test.make ~name:"single pass picks what the reference picks"
    ~count:500 arb_bucket (fun ((qlo, qhi), rs) ->
      let query = mk qlo qhi in
      let entries = List.map (fun (lo, hi) -> entry lo hi) rs in
      let store = P2prange.Store.create () in
      List.iter
        (fun e -> ignore (P2prange.Store.insert store ~identifier:5 e : bool))
        entries;
      List.for_all
        (fun matching ->
          same_pick
            (M.best matching ~query entries)
            (oracle_best matching ~query entries)
          && same_pick
               (M.select matching ~query
                  (P2prange.Store.fold_bucket store ~identifier:5))
               (oracle_best matching ~query
                  (P2prange.Store.peek_bucket store ~identifier:5)))
        policies)

(* The store as the old copying read left it, as a list model: a read of
   a bucket ticks the clock (under LRU, even when the bucket is empty) and
   stamps each of its entries; an insert of a new range evicts the
   smallest stamp while the store is full. Equal stamps only arise within
   one bucket, from one read, and the store's scan keeps the first of
   them in bucket order, newest first. *)
module Old_store = struct
  type t = {
    lru : bool;
    capacity : int;
    mutable clock : int;
    mutable entries : (int * (int * int) * int ref) list;
        (* (identifier, range, stamp), newest first *)
    mutable evictions : int;
  }

  let create ~lru ~capacity =
    { lru; capacity; clock = 0; entries = []; evictions = 0 }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let read t identifier =
    if t.lru then begin
      let now = tick t in
      List.iter
        (fun (i, _, stamp) -> if i = identifier then stamp := now)
        t.entries
    end

  let evict_one t =
    let victim =
      List.fold_left
        (fun acc ((_, _, stamp) as e) ->
          match acc with
          | Some (_, _, best) when !best <= !stamp -> acc
          | Some _ | None -> Some e)
        None t.entries
    in
    Option.iter
      (fun v ->
        t.entries <- List.filter (fun e -> e != v) t.entries;
        t.evictions <- t.evictions + 1)
      victim

  let insert t identifier range =
    let present (i, r, _) = i = identifier && r = range in
    if not (List.exists present t.entries) then begin
      while List.length t.entries >= t.capacity do
        evict_one t
      done;
      t.entries <- (identifier, range, ref (tick t)) :: t.entries
    end

  let bucket t identifier =
    List.filter_map
      (fun (i, r, _) -> if i = identifier then Some r else None)
      t.entries
end

type op = Read of int | Insert of int * (int * int)

let show_op = function
  | Read i -> Printf.sprintf "read %d" i
  | Insert (i, (lo, hi)) -> Printf.sprintf "insert %d [%d,%d]" i lo hi

let ops_gen =
  QCheck.Gen.(
    let* capacity = int_range 1 6 in
    let* lru = bool in
    let op =
      let* identifier = int_range 0 4 in
      let* read = bool in
      if read then return (Read identifier)
      else
        let* lo = int_range 0 8 in
        let* width = int_range 0 3 in
        return (Insert (identifier, (lo, lo + width)))
    in
    let* ops = list_size (int_range 1 80) op in
    return (capacity, lru, ops))

let arb_ops =
  QCheck.make
    ~print:(fun (capacity, lru, ops) ->
      Printf.sprintf "%s %d: %s"
        (if lru then "Lru" else "Fifo")
        capacity
        (String.concat "; " (List.map show_op ops)))
    ops_gen

(* Serves through [fold_bucket] keep a bounded store's eviction order:
   after every step each bucket holds what the model holds, in the same
   order, with the same eviction count. Reads of empty buckets are common
   (five identifiers, small capacities). *)
let prop_fold_reads_evict_like_copying_reads =
  QCheck.Test.make ~name:"fold reads evict in the old read's order" ~count:300
    arb_ops (fun (capacity, lru, ops) ->
      let policy =
        if lru then P2prange.Store.Lru capacity
        else P2prange.Store.Fifo capacity
      in
      let store = P2prange.Store.create ~policy () in
      let model = Old_store.create ~lru ~capacity in
      let ranges i =
        List.map
          (fun { P2prange.Store.range; _ } -> (Range.lo range, Range.hi range))
          (P2prange.Store.peek_bucket store ~identifier:i)
      in
      List.for_all
        (fun op ->
          (match op with
          | Read i ->
            Old_store.read model i;
            ignore
              (M.select P2prange.Config.Jaccard_match ~query:(mk 0 8)
                 (P2prange.Store.fold_bucket store ~identifier:i))
          | Insert (i, (lo, hi)) ->
            Old_store.insert model i (lo, hi);
            ignore
              (P2prange.Store.insert store ~identifier:i (entry lo hi) : bool));
          P2prange.Store.evictions store = model.Old_store.evictions
          && List.for_all
               (fun i -> ranges i = Old_store.bucket model i)
               [ 0; 1; 2; 3; 4 ])
        ops)

(* A serve allocates the same few words however many candidates its bucket
   holds: the winner's record, the pass's state and the fold's closures,
   none per candidate. The bucket is built so that every candidate
   displaces the best so far (the fold feeds newest first, and older
   entries cover more of the query), and under LRU every read restamps
   it. *)
let serve_allocation_flat () =
  let query = mk 0 999 in
  let words_per_serve ~policy ~matching n =
    let store = P2prange.Store.create ~policy () in
    for j = 0 to n - 1 do
      let e = entry 0 (999 - j) in
      ignore (P2prange.Store.insert store ~identifier:3 e : bool)
    done;
    let serve () =
      M.select matching ~query (P2prange.Store.fold_bucket store ~identifier:3)
    in
    ignore (serve ());
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (serve ()))
    done;
    let after = Gc.minor_words () in
    (after -. before) /. 1000.
  in
  List.iter
    (fun (store_name, policy) ->
      List.iter
        (fun matching ->
          let one = words_per_serve ~policy ~matching 1
          and many = words_per_serve ~policy ~matching 200 in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %.2f words over 1 entry, %.2f over 200"
               store_name (policy_name matching) one many)
            true
            (many -. one <= 1.0))
        policies)
    [ ("unbounded", P2prange.Store.Unbounded); ("lru", P2prange.Store.Lru 500) ]

let suite =
  [
    Alcotest.test_case "scoring computes both measures" `Quick scores_both_measures;
    Alcotest.test_case "policies pick different winners" `Quick
      policies_pick_differently;
    Alcotest.test_case "disjoint candidates rejected" `Quick
      disjoint_candidates_rejected;
    Alcotest.test_case "ties break toward the smaller range" `Quick
      tie_breaks_toward_smaller;
    Alcotest.test_case "exactness" `Quick exactness;
    Alcotest.test_case "best maximizes the score" `Quick best_is_max_score;
    QCheck_alcotest.to_alcotest prop_single_pass_matches_oracle;
    QCheck_alcotest.to_alcotest prop_fold_reads_evict_like_copying_reads;
    Alcotest.test_case "a serve allocates nothing per candidate" `Quick
      serve_allocation_flat;
  ]

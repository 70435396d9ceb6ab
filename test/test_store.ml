(* Partition stores: bucket isolation, idempotent insertion, counting. *)

module Range = Rangeset.Range

let mk lo hi = Range.make ~lo ~hi
let entry lo hi = { P2prange.Store.range = mk lo hi; partition = None }

(* Most tests ignore whether a range was new; [insert_idempotent_per_bucket]
   checks the flag. *)
let insert s ~identifier e =
  ignore (P2prange.Store.insert s ~identifier e : bool)

let size s ~identifier =
  P2prange.Store.fold_bucket s ~identifier (fun n _ -> n + 1) 0

(* A serve's read: under LRU it stamps the bucket's entries. *)
let read s ~identifier =
  P2prange.Store.fold_bucket s ~identifier (fun () _ -> ()) ()

let empty_bucket () =
  let s = P2prange.Store.create () in
  Alcotest.(check int) "no entries" 0 (P2prange.Store.entry_count s);
  Alcotest.(check int) "no buckets" 0 (P2prange.Store.bucket_count s);
  Alcotest.(check int) "empty bucket" 0
    (size s ~identifier:42)

let insert_and_lookup () =
  let s = P2prange.Store.create () in
  insert s ~identifier:7 (entry 0 10);
  insert s ~identifier:7 (entry 20 30);
  insert s ~identifier:9 (entry 0 10);
  Alcotest.(check int) "three entries" 3 (P2prange.Store.entry_count s);
  Alcotest.(check int) "two buckets" 2 (P2prange.Store.bucket_count s);
  Alcotest.(check int) "bucket 7 holds two" 2
    (size s ~identifier:7);
  Alcotest.(check int) "bucket 9 holds one" 1
    (size s ~identifier:9);
  Alcotest.(check int) "unknown bucket empty" 0
    (size s ~identifier:1000)

let insert_idempotent_per_bucket () =
  let s = P2prange.Store.create () in
  Alcotest.(check bool) "first insert reports new" true
    (P2prange.Store.insert s ~identifier:7 (entry 0 10));
  Alcotest.(check bool) "re-insert reports present" false
    (P2prange.Store.insert s ~identifier:7 (entry 0 10));
  Alcotest.(check int) "same (id, range) stored once" 1
    (P2prange.Store.entry_count s);
  (* …but the same range under another identifier is a separate entry. *)
  Alcotest.(check bool) "other bucket reports new" true
    (P2prange.Store.insert s ~identifier:8 (entry 0 10));
  Alcotest.(check int) "other bucket counts" 2 (P2prange.Store.entry_count s)

let mem_checks () =
  let s = P2prange.Store.create () in
  insert s ~identifier:7 (entry 0 10);
  Alcotest.(check bool) "present" true
    (P2prange.Store.mem s ~identifier:7 ~range:(mk 0 10));
  Alcotest.(check bool) "different range absent" false
    (P2prange.Store.mem s ~identifier:7 ~range:(mk 0 11));
  Alcotest.(check bool) "different bucket absent" false
    (P2prange.Store.mem s ~identifier:8 ~range:(mk 0 10))

let all_entries_spans_buckets () =
  let s = P2prange.Store.create () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  Alcotest.(check int) "all three visible" 3
    (List.length (P2prange.Store.all_entries s))

let fifo_evicts_oldest () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  insert s ~identifier:4 (entry 60 70);
  Alcotest.(check int) "capacity respected" 3 (P2prange.Store.entry_count s);
  Alcotest.(check int) "one eviction" 1 (P2prange.Store.evictions s);
  Alcotest.(check bool) "oldest gone" false
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10));
  Alcotest.(check bool) "newest present" true
    (P2prange.Store.mem s ~identifier:4 ~range:(mk 60 70))

let lru_keeps_recently_matched () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Lru 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  (* Touch bucket 1: its entry becomes the most recently used. *)
  read s ~identifier:1;
  insert s ~identifier:4 (entry 60 70);
  Alcotest.(check bool) "touched entry survives" true
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10));
  (* Entry 2 was the least recently used; it must be the victim. *)
  Alcotest.(check bool) "LRU victim gone" false
    (P2prange.Store.mem s ~identifier:2 ~range:(mk 20 30))

let fifo_ignores_reads () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 2) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  (* Reading bucket 1 must NOT protect it under FIFO. *)
  read s ~identifier:1;
  insert s ~identifier:3 (entry 40 50);
  Alcotest.(check bool) "insertion order rules" false
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10))

let unbounded_never_evicts () =
  let s = P2prange.Store.create () in
  for i = 0 to 999 do
    insert s ~identifier:i (entry i (i + 1))
  done;
  Alcotest.(check int) "all kept" 1000 (P2prange.Store.entry_count s);
  Alcotest.(check int) "no evictions" 0 (P2prange.Store.evictions s)

let capacity_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Store.create: capacity must be at least 1") (fun () ->
      ignore (P2prange.Store.create ~policy:(P2prange.Store.Lru 0) ()))

let all_entries_does_not_refresh_lru () =
  (* Regression: the per-peer index scan ([all_entries]) and maintenance
     reads ([peek_bucket]) must not count as uses, or a full-store scan
     would reset every LRU stamp and turn eviction into FIFO. *)
  let s = P2prange.Store.create ~policy:(P2prange.Store.Lru 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  (* Make 2 the most recent, then scan; if scanning refreshed stamps the
     victim would be decided by scan order instead. *)
  read s ~identifier:2;
  ignore (P2prange.Store.all_entries s);
  ignore (P2prange.Store.peek_bucket s ~identifier:1);
  insert s ~identifier:4 (entry 60 70);
  Alcotest.(check bool) "LRU victim unchanged by scans" false
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10));
  Alcotest.(check bool) "touched entry survives" true
    (P2prange.Store.mem s ~identifier:2 ~range:(mk 20 30))

let evictions_count_across_buckets () =
  (* The eviction counter is store-wide: victims from different buckets
     all accumulate, and emptied buckets disappear. *)
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 2) () in
  for i = 1 to 6 do
    insert s ~identifier:i (entry (10 * i) (10 * i + 5))
  done;
  Alcotest.(check int) "four dropped over four buckets" 4
    (P2prange.Store.evictions s);
  Alcotest.(check int) "capacity holds" 2 (P2prange.Store.entry_count s);
  Alcotest.(check int) "emptied buckets pruned" 2
    (P2prange.Store.bucket_count s);
  (* Idempotent re-insert of a survivor must not evict. *)
  insert s ~identifier:6 (entry 60 65);
  Alcotest.(check int) "no eviction on re-insert" 4 (P2prange.Store.evictions s)

let remove_bucket_is_not_an_eviction () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 8) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:1 (entry 20 30);
  insert s ~identifier:2 (entry 40 50);
  Alcotest.(check int) "removes the whole bucket" 2
    (P2prange.Store.remove_bucket s ~identifier:1);
  Alcotest.(check int) "missing bucket removes nothing" 0
    (P2prange.Store.remove_bucket s ~identifier:1);
  Alcotest.(check int) "count adjusted" 1 (P2prange.Store.entry_count s);
  Alcotest.(check int) "not counted as eviction" 0 (P2prange.Store.evictions s)

let capacity_one () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 1) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  Alcotest.(check int) "single slot" 1 (P2prange.Store.entry_count s);
  Alcotest.(check bool) "latest wins" true
    (P2prange.Store.mem s ~identifier:2 ~range:(mk 20 30))

(* A store holds no table until its first insert, and reading it does
   not make one: an unwritten unbounded store stays a 3-word record. *)
let unwritten_reads_allocate_nothing () =
  List.iter
    (fun (label, policy) ->
      let s = P2prange.Store.create ~policy () in
      let words () = Obj.reachable_words (Obj.repr s) in
      let before = words () in
      read s ~identifier:7;
      ignore (Sys.opaque_identity (P2prange.Store.peek_bucket s ~identifier:7));
      ignore (Sys.opaque_identity (P2prange.Store.identifiers s));
      ignore (Sys.opaque_identity (P2prange.Store.all_entries s));
      ignore (P2prange.Store.remove_bucket s ~identifier:7 : int);
      ignore (P2prange.Store.mem s ~identifier:7 ~range:(mk 0 10) : bool);
      Alcotest.(check (list int))
        (label ^ ": bucket, entry and eviction counts")
        [ 0; 0; 0 ]
        [
          P2prange.Store.bucket_count s;
          P2prange.Store.entry_count s;
          P2prange.Store.evictions s;
        ];
      Alcotest.(check int) (label ^ ": reachable words") before (words ()))
    [
      ("unbounded", P2prange.Store.Unbounded);
      ("lru", P2prange.Store.Lru 3);
      ("fifo", P2prange.Store.Fifo 3);
    ];
  Alcotest.(check int) "an unwritten unbounded store" 3
    (Obj.reachable_words (Obj.repr (P2prange.Store.create ())))

(* Reads of a store with no table do not tick its LRU clock. Stamps only
   order entries within one store, so however often it was read first,
   an [Lru 3] store evicts the same entries in the same order. *)
let lru_reads_before_first_insert () =
  let contents s =
    List.map
      (fun identifier ->
        ( identifier,
          List.map
            (fun e -> Range.lo e.P2prange.Store.range)
            (P2prange.Store.peek_bucket s ~identifier) ))
      (P2prange.Store.identifiers s)
  in
  let run reads =
    let s = P2prange.Store.create ~policy:(P2prange.Store.Lru 3) () in
    for k = 1 to reads do
      read s ~identifier:(k mod 4)
    done;
    (* After each insert, read one bucket so use order differs from
       insertion order, then record what the store holds. *)
    List.mapi
      (fun i identifier ->
        insert s ~identifier (entry (10 * i) ((10 * i) + 5));
        read s ~identifier:(i mod 3);
        contents s)
      [ 0; 1; 2; 0; 3; 1; 2; 2; 0; 3 ]
  in
  let never = run 0 in
  List.iter
    (fun reads ->
      Alcotest.(check (list (list (pair int (list int)))))
        (Printf.sprintf "read %d times before the first insert" reads)
        never (run reads))
    [ 1; 2; 7 ]

let suite =
  [
    Alcotest.test_case "empty store" `Quick empty_bucket;
    Alcotest.test_case "insert and bucket lookup" `Quick insert_and_lookup;
    Alcotest.test_case "idempotent per (identifier, range)" `Quick
      insert_idempotent_per_bucket;
    Alcotest.test_case "mem" `Quick mem_checks;
    Alcotest.test_case "all_entries spans buckets" `Quick all_entries_spans_buckets;
    Alcotest.test_case "FIFO evicts the oldest insertion" `Quick fifo_evicts_oldest;
    Alcotest.test_case "LRU keeps recently matched entries" `Quick
      lru_keeps_recently_matched;
    Alcotest.test_case "FIFO ignores reads" `Quick fifo_ignores_reads;
    Alcotest.test_case "unbounded never evicts" `Quick unbounded_never_evicts;
    Alcotest.test_case "scans do not refresh LRU stamps" `Quick
      all_entries_does_not_refresh_lru;
    Alcotest.test_case "evictions count across buckets" `Quick
      evictions_count_across_buckets;
    Alcotest.test_case "remove_bucket is not an eviction" `Quick
      remove_bucket_is_not_an_eviction;
    Alcotest.test_case "capacity validation" `Quick capacity_validation;
    Alcotest.test_case "capacity of one" `Quick capacity_one;
    Alcotest.test_case "reads of an unwritten store allocate nothing" `Quick
      unwritten_reads_allocate_nothing;
    Alcotest.test_case "LRU reads before the first insert change nothing"
      `Quick lru_reads_before_first_insert;
  ]

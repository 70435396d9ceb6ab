(* The assembled system: protocol invariants — identifiers, routing,
   caching, exact-match behaviour, padding integration, determinism. *)

module Range = Rangeset.Range
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result

let mk lo hi = Range.make ~lo ~hi

let default_system ?(config = P2prange.Config.default) () =
  Sys_.create ~config ~seed:7L ~n_peers:20 ()

let construction () =
  let s = default_system () in
  Alcotest.(check int) "peer count" 20 (Sys_.peer_count s);
  Alcotest.(check int) "ring size matches" 20 (Chord.Ring.size (Sys_.ring s));
  Alcotest.(check int) "starts empty" 0 (Sys_.total_entries s);
  Alcotest.check_raises "bad peer count"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Invalid_topology;
         message = "System.create: n_peers must be positive";
         context = [ ("n_peers", "0") ];
       })
    (fun () -> ignore (Sys_.create ~seed:1L ~n_peers:0 ()))

let peer_lookup () =
  let s = default_system () in
  let p = Sys_.peer_by_name s "peer-3" in
  Alcotest.(check string) "by name" "peer-3" (P2prange.Peer.name p);
  Alcotest.(check string) "by id" "peer-3"
    (P2prange.Peer.name (Sys_.peer_by_id s (P2prange.Peer.id p)));
  Alcotest.check_raises "unknown name"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Unknown_peer;
         message = "System.peer_by_name: unknown peer";
         context = [ ("peer", "nobody") ];
       })
    (fun () -> ignore (Sys_.peer_by_name s "nobody"));
  (* No peer of this 20-peer ring sits one past peer-3. *)
  let vacant = (P2prange.Peer.id p + 1) land (Chord.Id.modulus - 1) in
  Alcotest.check_raises "unknown position"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Unknown_peer;
         message = "System.peer_by_id: no peer at this ring position";
         context = [ ("position", Format.asprintf "%a" Chord.Id.pp vacant) ];
       })
    (fun () -> ignore (Sys_.peer_by_id s vacant))

let peer_error code message context =
  P2prange.Error.Error { P2prange.Error.code; message; context }

(* "peer-40683" and "peer-153794" hash to one ring position, 0x50adf2e4.
   Whatever other peers there are, and wherever they come in creation
   order, the system refuses the pair and names the later of the two. *)
let position_collision () =
  let a = "peer-40683" and b = "peer-153794" in
  Alcotest.(check (list int)) "both at 0x50adf2e4" [ 0x50adf2e4; 0x50adf2e4 ]
    [ Chord.Id.of_name a; Chord.Id.of_name b ];
  List.iter
    (fun (names, later) ->
      Alcotest.check_raises (String.concat ", " names)
        (peer_error P2prange.Error.Invalid_topology
           "System: ring position collision (rename a peer)"
           [ ("peer", later) ])
        (fun () -> ignore (Sys_.create_with_peers ~seed:7L names)))
    [
      ([ a; b ], b);
      ([ b; a ], a);
      ([ "peer-1"; "peer-2"; a; b ], b);
      ([ a; "peer-1"; "peer-2"; b ], b);
      ([ a; b; "peer-1"; "peer-2" ], b);
      (* Two collisions: the first later peer in creation order is named. *)
      ([ a; "peer-1"; b; "peer-1" ], b);
      ([ "peer-1"; a; "peer-1"; b ], "peer-1");
    ]

(* A system holding "peer-40683" has a peer at the position of
   "peer-153794", but not that peer: lookups and churn by the foreign
   name are refused as unknown. *)
let foreign_peer_at_a_held_position () =
  let s =
    Sys_.create_with_peers ~seed:7L [ "peer-1"; "peer-40683"; "peer-2" ]
  in
  let held = Sys_.peer_by_name s "peer-40683" in
  let foreign =
    Sys_.peer_by_name (Sys_.create_with_peers ~seed:7L [ "peer-153794" ])
      "peer-153794"
  in
  Alcotest.(check string) "the position leads to the held peer" "peer-40683"
    (P2prange.Peer.name (Sys_.peer_by_id s (P2prange.Peer.id foreign)));
  let unknown message =
    peer_error P2prange.Error.Unknown_peer message [ ("peer", "peer-153794") ]
  in
  Alcotest.check_raises "peer_by_name"
    (unknown "System.peer_by_name: unknown peer") (fun () ->
      ignore (Sys_.peer_by_name s "peer-153794"));
  Alcotest.check_raises "fail_peer" (unknown "System.fail_peer: unknown peer")
    (fun () -> Sys_.fail_peer s foreign);
  Alcotest.check_raises "recover_peer"
    (unknown "System.recover_peer: unknown peer") (fun () ->
      Sys_.recover_peer s foreign);
  Alcotest.(check bool) "the held peer is untouched" true (Sys_.alive s held)

(* Peers are reached by ring index, and a store holds no table until its
   first write: 13.8 words per peer on OCaml 5.1.1, against 47.8 with
   per-peer tables. The audit reads every store without allocating one. *)
let words_per_fresh_peer () =
  let n = 100_000 in
  let config = { P2prange.Config.default with use_domain_cache = false } in
  let s = Sys_.create ~config ~seed:42L ~n_peers:n () in
  let words () = Obj.reachable_words (Obj.repr s) in
  let before = words () in
  let per_peer = float_of_int before /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per peer" per_peer)
    true (per_peer <= 15.0);
  Alcotest.(check (list string)) "audits clean" [] (Sys_.check_invariants s);
  Alcotest.(check int) "the audit leaves reachable words as they were" before
    (words ())

let identifiers_deterministic_and_l () =
  let s = default_system () in
  let ids = Sys_.identifiers s (mk 30 50) in
  Alcotest.(check int) "l identifiers" 5 (List.length ids);
  Alcotest.(check (list int)) "stable" ids (Sys_.identifiers s (mk 30 50))

let identifiers_cache_consistency () =
  (* With the domain cache off, identifiers must be identical. *)
  let on = Sys_.create ~config:P2prange.Config.default ~seed:7L ~n_peers:5 () in
  let off =
    Sys_.create
      ~config:{ P2prange.Config.default with use_domain_cache = false }
      ~seed:7L ~n_peers:5 ()
  in
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check (list int))
        (Printf.sprintf "[%d,%d]" lo hi)
        (Sys_.identifiers on (mk lo hi))
        (Sys_.identifiers off (mk lo hi)))
    [ (0, 1000); (0, 0); (500, 600); (999, 1000) ]

let publish_then_query_exact () =
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-0" in
  let range = mk 30 50 in
  let _ = Sys_.publish s ~from range in
  let result = Sys_.query s ~from:(Sys_.peer_by_name s "peer-5") range in
  (match result.Query_result.matched with
  | Some m ->
    Alcotest.(check bool) "exact range found" true
      (Range.equal m.P2prange.Matching.entry.P2prange.Store.range range)
  | None -> Alcotest.fail "published range must be found by the same query");
  Alcotest.(check (float 1e-9)) "similarity 1" 1.0 result.Query_result.similarity;
  Alcotest.(check (float 1e-9)) "recall 1" 1.0 result.Query_result.recall;
  Alcotest.(check bool) "exact match not re-cached" false result.Query_result.cached

let query_empty_system_caches () =
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-0" in
  let result = Sys_.query s ~from (mk 100 200) in
  Alcotest.(check bool) "no match in empty system" true
    (result.Query_result.matched = None);
  Alcotest.(check (float 0.0)) "zero recall" 0.0 result.Query_result.recall;
  Alcotest.(check bool) "range cached for the future" true result.Query_result.cached;
  Alcotest.(check bool) "entries appeared" true (Sys_.total_entries s > 0);
  (* The identical query now finds an exact match. *)
  let again = Sys_.query s ~from (mk 100 200) in
  Alcotest.(check (float 1e-9)) "found on retry" 1.0 again.Query_result.recall

let caching_disabled () =
  let config = { P2prange.Config.default with cache_on_inexact = false } in
  let s = default_system ~config () in
  let from = Sys_.peer_by_name s "peer-0" in
  let r = Sys_.query s ~from (mk 100 200) in
  Alcotest.(check bool) "not cached" false r.Query_result.cached;
  Alcotest.(check int) "still empty" 0 (Sys_.total_entries s)

let stats_shape () =
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-0" in
  let r = Sys_.query s ~from (mk 10 40) in
  Alcotest.(check int) "one hop count per identifier" 5
    (List.length r.Query_result.stats.Query_result.hops);
  Alcotest.(check int) "l identifiers" 5
    (List.length r.Query_result.stats.Query_result.identifiers);
  (* messages = Σ (hops + 1 reply) per lookup *)
  let expected =
    List.fold_left (fun acc h -> acc + h + 1) 0 r.Query_result.stats.Query_result.hops
  in
  Alcotest.(check int) "message accounting" expected r.Query_result.stats.Query_result.messages

let owners_hold_published_entries () =
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-0" in
  let range = mk 200 300 in
  let stats = Sys_.publish s ~from range in
  List.iter
    (fun identifier ->
      let owner = Sys_.owner_of_identifier s identifier in
      Alcotest.(check bool) "owner's bucket holds the range" true
        (P2prange.Store.mem (P2prange.Peer.store owner) ~identifier ~range))
    stats.Query_result.identifiers

let padding_applied_to_effective () =
  let config =
    { P2prange.Config.default with padding = P2prange.Config.Fixed_padding 0.2 }
  in
  let s = default_system ~config () in
  let from = Sys_.peer_by_name s "peer-0" in
  let r = Sys_.query s ~from (mk 100 199) in
  Alcotest.(check bool) "effective range padded" true
    (Range.equal r.Query_result.effective (mk 80 219));
  Alcotest.(check bool) "query preserved" true (Range.equal r.Query_result.query (mk 100 199))

let padded_cache_serves_inner_queries () =
  let config =
    { P2prange.Config.default with
      padding = P2prange.Config.Fixed_padding 0.2;
      matching = P2prange.Config.Containment_match;
    }
  in
  let s = default_system ~config () in
  let from = Sys_.peer_by_name s "peer-0" in
  ignore (Sys_.query s ~from (mk 100 199));
  (* A near-identical query pads to an effective range with Jaccard ≈ 0.98
     against the cached padded range [80, 219], so at least one of the five
     identifiers collides with near-certainty (deterministic per seed), and
     the cached range contains the original query entirely. *)
  let r = Sys_.query s ~from (mk 100 198) in
  Alcotest.(check bool) "matched" true (r.Query_result.matched <> None);
  Alcotest.(check (float 1e-9)) "full recall via padding" 1.0 r.Query_result.recall

let bounded_stores_enforce_capacity () =
  let config =
    { P2prange.Config.default with store_policy = P2prange.Store.Lru 10 }
  in
  let s = default_system ~config () in
  let from = Sys_.peer_by_name s "peer-0" in
  (* 200 distinct misses, each cached under 5 identifiers: far beyond the
     20 peers × 10 slots available. *)
  for i = 0 to 199 do
    ignore (Sys_.query s ~from (mk (i * 5) ((i * 5) + 3)))
  done;
  List.iter
    (fun p ->
      Alcotest.(check bool) "peer within capacity" true (P2prange.Peer.load p <= 10))
    (Sys_.peers s);
  Alcotest.(check bool) "evictions happened" true (Sys_.total_evictions s > 0)

let deterministic_per_seed () =
  let run () =
    let s = default_system () in
    let from = Sys_.peer_by_name s "peer-0" in
    let r = Sys_.query s ~from (mk 0 500) in
    (r.Query_result.stats.Query_result.identifiers, r.Query_result.stats.Query_result.hops)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* The protocol's cornerstone guarantee: h(Q) = h(Q) for every hash family,
   so a published range is always found — with recall 1 — by an identical
   query from any peer. *)
let prop_published_ranges_always_found =
  let gen =
    QCheck.Gen.(
      let* a = int_range 0 1000 in
      let* b = int_range 0 1000 in
      let* publisher = int_range 0 19 in
      let* asker = int_range 0 19 in
      return (min a b, max a b, publisher, asker))
  in
  QCheck.Test.make ~name:"published ranges are always found exactly" ~count:100
    (QCheck.make
       ~print:(fun (lo, hi, p, a) -> Printf.sprintf "[%d,%d] p%d->p%d" lo hi p a)
       gen)
    (fun (lo, hi, publisher, asker) ->
      let s = default_system () in
      let range = mk lo hi in
      let from = Sys_.peer_by_name s (Printf.sprintf "peer-%d" publisher) in
      ignore (Sys_.publish s ~from range);
      let result =
        Sys_.query s ~from:(Sys_.peer_by_name s (Printf.sprintf "peer-%d" asker)) range
      in
      result.Query_result.recall = 1.0 && result.Query_result.similarity = 1.0
      && not result.Query_result.cached)

(* ---- fault plane integration ---- *)

let faultless_config spec retry =
  { P2prange.Config.default with faults = Some { P2prange.Config.spec; retry } }

let zero_spec_plane_changes_nothing () =
  (* A plane with the all-zero spec must answer every query exactly like
     no plane at all: same matches, no degradation. (The PRNG streams are
     consumed differently, so this checks protocol results, not bits.) *)
  let plain = default_system () in
  let planed =
    default_system
      ~config:(faultless_config Faults.Plane.no_faults Faults.Retry.default)
      ()
  in
  let exercise s =
    let from = Sys_.peer_by_name s "peer-2" in
    ignore (Sys_.publish s ~from (mk 100 200));
    let r = Sys_.query s ~from:(Sys_.peer_by_name s "peer-7") (mk 100 200) in
    (r.Query_result.recall, r.Query_result.similarity, r.Query_result.responders, r.Query_result.degraded)
  in
  let recall_a, sim_a, responders_a, degraded_a = exercise plain in
  let recall_b, sim_b, responders_b, degraded_b = exercise planed in
  Alcotest.(check (float 0.0)) "same recall" recall_a recall_b;
  Alcotest.(check (float 0.0)) "same similarity" sim_a sim_b;
  Alcotest.(check int) "all owners respond" 5 responders_a;
  Alcotest.(check int) "all owners respond under the quiet plane" 5
    responders_b;
  Alcotest.(check bool) "never degraded without faults" false
    (degraded_a || degraded_b)

let total_loss_degrades_gracefully () =
  (* Every owner contact dropped with no retries: the query must come back
     degraded with zero responders — and must not raise. *)
  let spec = { Faults.Plane.no_faults with drop = 1.0 } in
  let s = default_system ~config:(faultless_config spec Faults.Retry.none) () in
  let from = Sys_.peer_by_name s "peer-0" in
  ignore (Sys_.publish s ~from (mk 10 60));
  let r = Sys_.query s ~from (mk 10 60) in
  Alcotest.(check int) "nobody answered" 0 r.Query_result.responders;
  Alcotest.(check bool) "flagged degraded" true r.Query_result.degraded;
  Alcotest.(check bool) "no match over zero responders" true
    (r.Query_result.matched = None);
  Alcotest.(check (float 0.0)) "recall collapses to zero" 0.0 r.Query_result.recall

let retries_restore_responders () =
  (* 30% drop: single-attempt contacts lose owners; the default retry
     policy brings nearly all of them back. *)
  let spec = { Faults.Plane.no_faults with drop = 0.3 } in
  let count retry =
    let s = default_system ~config:(faultless_config spec retry) () in
    let from = Sys_.peer_by_name s "peer-1" in
    let total = ref 0 in
    for i = 0 to 39 do
      let r = Sys_.query s ~from (mk (i * 20) ((i * 20) + 15)) in
      total := !total + r.Query_result.responders
    done;
    !total
  in
  let lone = count Faults.Retry.none in
  let retried = count Faults.Retry.default in
  (* Contacts cross hops+1 legs, each an independent 30% loss, so even
     retried contacts to far owners can exhaust their four attempts — the
     claim is a decisive improvement, not full recovery. *)
  let max_responders = 40 * 5 in
  Alcotest.(check bool)
    (Printf.sprintf "single-attempt loses owners (%d/%d)" lone max_responders)
    true
    (lone < max_responders / 2);
  Alcotest.(check bool)
    (Printf.sprintf "retries restore owners (%d vs %d)" retried lone)
    true
    (retried > 2 * lone)

let crashed_peer_recovers () =
  (* System.fail_peer / System.recover_peer round-trip: the peer's store survives its
     downtime. *)
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-4" in
  ignore (Sys_.publish s ~from (mk 300 400));
  let owner =
    Sys_.owner_of_identifier s (List.hd (Sys_.identifiers s (mk 300 400)))
  in
  Sys_.fail_peer s owner;
  Alcotest.(check bool) "down" false (Sys_.alive s owner);
  Sys_.recover_peer s owner;
  Alcotest.(check bool) "back up" true (Sys_.alive s owner);
  let r = Sys_.query s ~from (mk 300 400) in
  Alcotest.(check (float 0.0)) "published range found after recovery" 1.0
    r.Query_result.recall

(* --- degenerate invariant audits: report cleanly, never raise --- *)

let invariants_fresh_and_single () =
  (* A freshly built system (nothing published) and the smallest possible
     ring must both audit clean — no invariant can misfire on emptiness. *)
  let fresh = default_system () in
  Alcotest.(check (list string)) "fresh system audits clean" []
    (Sys_.check_invariants fresh);
  let one = Sys_.create ~seed:3L ~n_peers:1 () in
  Alcotest.(check (list string)) "single-peer system audits clean" []
    (Sys_.check_invariants one);
  let from = Sys_.peer_by_name one "peer-0" in
  ignore (Sys_.publish one ~from (mk 100 200));
  Alcotest.(check (list string)) "single peer holding data audits clean" []
    (Sys_.check_invariants one)

let invariants_all_peers_down () =
  (* Every peer failed: the audit must enumerate stranded buckets as
     findings — never raise — and recovery must silence it again. *)
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-0" in
  ignore (Sys_.publish s ~from (mk 300 400));
  ignore (Sys_.publish s ~from (mk 10 40));
  let peers = Sys_.peers s in
  List.iter (Sys_.fail_peer s) peers;
  let v =
    match Sys_.check_invariants s with
    | v -> v
    | exception e ->
      Alcotest.failf "audit raised on an all-down system: %s"
        (Printexc.to_string e)
  in
  Alcotest.(check bool) "stranded data is reported" true (v <> []);
  List.iter (Sys_.recover_peer s) peers;
  Alcotest.(check (list string)) "clean again after recovery" []
    (Sys_.check_invariants s)

let invariants_all_crashed_via_plane () =
  let config =
    P2prange.Config.default
    |> P2prange.Config.with_faults
         { P2prange.Config.spec = Faults.Plane.no_faults;
           retry = Faults.Retry.default;
         }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:8 () in
  let from = Sys_.peer_by_name s "peer-0" in
  ignore (Sys_.publish s ~from (mk 300 400));
  let plane = Option.get (Sys_.fault_plane s) in
  List.iter
    (fun p -> Faults.Plane.crash plane (P2prange.Peer.id p))
    (Sys_.peers s);
  (match Sys_.check_invariants s with
  | _ -> ()
  | exception e ->
    Alcotest.failf "audit raised under an all-crashed plane: %s"
      (Printexc.to_string e));
  List.iter
    (fun p -> Faults.Plane.recover plane (P2prange.Peer.id p))
    (Sys_.peers s);
  Alcotest.(check (list string)) "clean after plane recovery" []
    (Sys_.check_invariants s)

let invariants_detailed_structure () =
  (* The structured audit carries the stable error code, an invariant
     family in context, and projects to exactly the legacy strings. *)
  let s = default_system () in
  let from = Sys_.peer_by_name s "peer-0" in
  ignore (Sys_.publish s ~from (mk 300 400));
  List.iter (Sys_.fail_peer s) (Sys_.peers s);
  let detailed = Sys_.check_invariants_detailed s in
  Alcotest.(check bool) "findings present" true (detailed <> []);
  List.iter
    (fun e ->
      Alcotest.(check string) "code is broken-invariant" "broken-invariant"
        (P2prange.Error.code_name e.P2prange.Error.code);
      Alcotest.(check bool) "context names the invariant family" true
        (List.mem_assoc "invariant" e.P2prange.Error.context))
    detailed;
  Alcotest.(check (list string))
    "string audit is the message projection"
    (List.map (fun e -> e.P2prange.Error.message) detailed)
    (Sys_.check_invariants s)

(* A publish whose routes all answer keeps its route list as it is: no
   fault plane, hints off, so every route passes the reachability filter
   and nothing needs copying. Repeat publishes of one range at 1 000
   peers find the range already stored, so what is left is the
   signature, the routes, the stores' membership scans and the stats:
   215 words on OCaml 5.1.1. A copy of the five routes adds a 3-word cons
   each (230 words), past this bound. *)
let repeat_publish_allocation () =
  let s = Sys_.create ~seed:7L ~n_peers:1000 () in
  let from = Sys_.peer_by_name s "peer-17" and range = mk 300 420 in
  let metrics = Obs.Metrics.enabled ()
  and series = Obs.Series.enabled ()
  and trace = Obs.Trace.enabled () in
  Obs.Metrics.disable ();
  Obs.Series.disable ();
  Obs.Trace.disable ();
  let words =
    Fun.protect
      ~finally:(fun () ->
        if metrics then Obs.Metrics.enable ();
        if series then Obs.Series.enable ();
        if trace then Obs.Trace.enable ())
      (fun () ->
        ignore (Sys_.publish s ~from range);
        let before = Gc.minor_words () in
        for _ = 1 to 2000 do
          ignore (Sys.opaque_identity (Sys_.publish s ~from range))
        done;
        let after = Gc.minor_words () in
        (after -. before) /. 2000.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per repeat publish" words)
    true (words <= 222.0)

let suite =
  [
    Alcotest.test_case "construction" `Quick construction;
    Alcotest.test_case "a publish that drops no route copies none" `Quick
      repeat_publish_allocation;
    Alcotest.test_case "fresh and single-peer systems audit clean" `Quick
      invariants_fresh_and_single;
    Alcotest.test_case "all peers failed: audit reports, never raises" `Quick
      invariants_all_peers_down;
    Alcotest.test_case "all peers crashed via plane: audit survives" `Quick
      invariants_all_crashed_via_plane;
    Alcotest.test_case "detailed audit structure and projection" `Quick
      invariants_detailed_structure;
    QCheck_alcotest.to_alcotest prop_published_ranges_always_found;
    Alcotest.test_case "peer lookup" `Quick peer_lookup;
    Alcotest.test_case "a ring position collision names the later peer" `Quick
      position_collision;
    Alcotest.test_case "a foreign peer at a held position is unknown" `Quick
      foreign_peer_at_a_held_position;
    Alcotest.test_case "a fresh 100 000-peer system is small" `Slow
      words_per_fresh_peer;
    Alcotest.test_case "identifiers: count and determinism" `Quick
      identifiers_deterministic_and_l;
    Alcotest.test_case "domain cache gives identical identifiers" `Quick
      identifiers_cache_consistency;
    Alcotest.test_case "publish then exact-match query" `Quick
      publish_then_query_exact;
    Alcotest.test_case "miss caches the queried range" `Quick
      query_empty_system_caches;
    Alcotest.test_case "cache-on-inexact can be disabled" `Quick caching_disabled;
    Alcotest.test_case "lookup stats shape and message accounting" `Quick
      stats_shape;
    Alcotest.test_case "owners hold published entries" `Quick
      owners_hold_published_entries;
    Alcotest.test_case "padding produces the effective range" `Quick
      padding_applied_to_effective;
    Alcotest.test_case "padded caches answer narrower queries" `Quick
      padded_cache_serves_inner_queries;
    Alcotest.test_case "bounded stores enforce capacity" `Quick
      bounded_stores_enforce_capacity;
    Alcotest.test_case "deterministic per seed" `Quick deterministic_per_seed;
    Alcotest.test_case "zero-spec fault plane changes nothing" `Quick
      zero_spec_plane_changes_nothing;
    Alcotest.test_case "total loss degrades gracefully" `Quick
      total_loss_degrades_gracefully;
    Alcotest.test_case "retries restore responders" `Quick
      retries_restore_responders;
    Alcotest.test_case "failed peer recovers with its store" `Quick
      crashed_peer_recovers;
  ]

(* The timed replay: latency composition, FIFO queueing at hot owners,
   saturation accounting, and seeded replays pinned bit for bit. *)

module Range = Rangeset.Range

let mk lo hi = Range.make ~lo ~hi

let latency_composition () =
  (* Deterministic latencies (no jitter): a query over l lookups completes
     after max(hops_i + 1) messages plus one service time. *)
  let system = P2prange.System.create ~seed:3L ~n_peers:10 () in
  (* service_ms = 0 so same-owner lookups of this single query cannot queue
     behind each other (clustered identifiers often share an owner). *)
  let latency = { P2prange.Timed.hop_ms = 10.0; jitter_ms = 0.0; service_ms = 0.0 } in
  let timed = P2prange.Timed.create ~latency ~system ~seed:4L () in
  let from = P2prange.System.peer_by_name system "peer-0" in
  (* Probe the hop counts the same query will see. *)
  let probe = P2prange.System.create ~seed:3L ~n_peers:10 () in
  let probe_result =
    P2prange.System.query probe ~from:(P2prange.System.peer_by_name probe "peer-0") (mk 10 60)
  in
  let max_hops =
    List.fold_left Stdlib.max 0 probe_result.P2prange.Query_result.stats.P2prange.Query_result.hops
  in
  P2prange.Timed.submit timed ~at:0.0 ~from (mk 10 60);
  P2prange.Timed.run timed;
  match P2prange.Timed.completed timed with
  | [ (t0, latency_ms) ] ->
    Alcotest.(check (float 0.0)) "submitted at 0" 0.0 t0;
    (* No queueing for a single query: latency = (max hops + 1 reply)·10 + 2. *)
    Alcotest.(check (float 1e-6)) "deterministic latency"
      (float_of_int (max_hops + 1) *. 10.0)
      latency_ms
  | _ -> Alcotest.fail "exactly one completion expected"

let queueing_delays () =
  (* Many simultaneous queries for the same range hammer the same owners:
     FIFO queueing must make later completions slower. *)
  let system = P2prange.System.create ~seed:5L ~n_peers:10 () in
  let latency = { P2prange.Timed.hop_ms = 1.0; jitter_ms = 0.0; service_ms = 50.0 } in
  let timed = P2prange.Timed.create ~latency ~system ~seed:6L () in
  let from = P2prange.System.peer_by_name system "peer-0" in
  for _ = 1 to 5 do
    P2prange.Timed.submit timed ~at:0.0 ~from (mk 100 200)
  done;
  P2prange.Timed.run timed;
  let latencies = List.map snd (P2prange.Timed.completed timed) in
  Alcotest.(check int) "all completed" 5 (List.length latencies);
  let lo = List.fold_left Float.min infinity latencies in
  let hi = List.fold_left Float.max 0.0 latencies in
  Alcotest.(check bool)
    (Printf.sprintf "queueing spreads latency: %.0f .. %.0f" lo hi)
    true
    (hi >= lo +. (4.0 *. 50.0) -. 1e-6)

let utilization_and_busiest () =
  let system = P2prange.System.create ~seed:7L ~n_peers:10 () in
  let timed = P2prange.Timed.create ~system ~seed:8L () in
  let from = P2prange.System.peer_by_name system "peer-1" in
  for i = 0 to 9 do
    P2prange.Timed.submit timed ~at:(float_of_int i) ~from (mk (i * 10) ((i * 10) + 5))
  done;
  P2prange.Timed.run timed;
  Alcotest.(check int) "ten completions" 10
    (List.length (P2prange.Timed.completed timed));
  (match P2prange.Timed.busiest_peer timed with
  | Some (_, total) ->
    Alcotest.(check bool) "some service time accrued" true (total > 0.0)
  | None -> Alcotest.fail "service must have happened");
  let u = P2prange.Timed.utilization timed ~horizon_ms:10_000.0 in
  Alcotest.(check bool) "light load utilization < 1" true (u < 1.0)

(* Two batches of 150 queries from random peers of a 40-peer system,
   each batch replayed by its own [run]; the second starts after the
   first's last reply, so the owners' queues and the jitter stream carry
   over. Spread identifiers give the lookups many owners. [gap rng]
   spaces consecutive arrivals. *)
let replay ?latency ~gap ~seed () =
  let config =
    P2prange.Config.(default |> with_spread_identifiers true)
  in
  let system = P2prange.System.create ~config ~seed ~n_peers:40 () in
  let timed = P2prange.Timed.create ?latency ~system ~seed () in
  let rng = Prng.Splitmix.create seed in
  let stream =
    Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
      ~domain:config.P2prange.Config.domain ~seed
  in
  let clock = ref 0.0 in
  let batch () =
    for _ = 1 to 150 do
      clock := !clock +. gap rng;
      let from = P2prange.System.random_peer system rng in
      P2prange.Timed.submit timed ~at:!clock ~from
        (Workload.Query_workload.next stream)
    done;
    P2prange.Timed.run timed
  in
  batch ();
  clock :=
    List.fold_left
      (fun acc (at, latency_ms) -> Float.max acc (at +. latency_ms))
      !clock
      (P2prange.Timed.completed timed)
    +. 1.0;
  batch ();
  timed

(* Completion count, a digest of every (submit time, latency) in
   completion order with floats in hex, and the busiest peer: any change
   to arrival order, tie-breaking, queueing or jitter draws moves one. *)
let fingerprint timed =
  let completed = P2prange.Timed.completed timed in
  let lines =
    List.map (fun (at, latency_ms) -> Printf.sprintf "%h %h" at latency_ms) completed
  in
  let busiest =
    match P2prange.Timed.busiest_peer timed with
    | Some (name, total) -> Printf.sprintf "%s %h" name total
    | None -> "none"
  in
  Printf.sprintf "%d %s %s" (List.length completed)
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))
    busiest

let pinned_exact_ties () =
  (* Integer-ms arrivals, 0-2 ms apart, with integer hop and service times
     and no jitter: many lookups arrive, and many replies land, at exactly
     the same instant, so only the tie order separates them. *)
  let latency = { P2prange.Timed.hop_ms = 10.0; jitter_ms = 0.0; service_ms = 2.0 } in
  let timed =
    replay ~latency ~gap:(fun rng -> float_of_int (Prng.Splitmix.int rng 3)) ~seed:11L ()
  in
  Alcotest.(check string) "count, digest, busiest peer" "300 97638dcbbf1b807ecddc38aba54e8a7b peer-34 0x1.2ep+8"
    (fingerprint timed)

let pinned_default_latency () =
  (* Poisson arrivals at 200 queries/s under the default model. *)
  let timed =
    replay
      ~gap:(fun rng -> -.log (1.0 -. Prng.Splitmix.float rng) *. 1000.0 /. 200.0)
      ~seed:12L ()
  in
  Alcotest.(check string) "count, digest, busiest peer" "300 8bf9161201005b2bd0b3213d25f86e21 peer-34 0x1.76p+8"
    (fingerprint timed)

let submit_into_the_past_rejected () =
  let system = P2prange.System.create ~seed:9L ~n_peers:10 () in
  let timed = P2prange.Timed.create ~system ~seed:9L () in
  let from = P2prange.System.peer_by_name system "peer-0" in
  P2prange.Timed.submit timed ~at:1000.0 ~from (mk 10 60);
  P2prange.Timed.run timed;
  match P2prange.Timed.submit timed ~at:0.0 ~from (mk 70 90) with
  | () -> Alcotest.fail "a submit before the replayed end was accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "latency composition" `Quick latency_composition;
    Alcotest.test_case "FIFO queueing at hot owners" `Quick queueing_delays;
    Alcotest.test_case "utilization accounting" `Quick utilization_and_busiest;
    Alcotest.test_case "replay with exact ties is pinned" `Quick
      pinned_exact_ties;
    Alcotest.test_case "replay at the default latency is pinned" `Quick
      pinned_default_latency;
    Alcotest.test_case "submit into the replayed past rejected" `Quick
      submit_into_the_past_rejected;
  ]

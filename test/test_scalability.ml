(* Scalability harness (Figures 11–12 at reduced scale): conservation of
   stored partitions, load statistics, identifier spread over the ring,
   and hop-count scaling. *)

let small_workload =
  lazy (P2prange.Scalability.make_workload ~unique_partitions:500 ~seed:1L ())

let load_conservation () =
  let w = Lazy.force small_workload in
  Alcotest.(check int) "workload size" 500 (P2prange.Scalability.workload_size w);
  Alcotest.(check int) "stored = unique × l" 2500
    (P2prange.Scalability.stored_count w);
  let p = P2prange.Scalability.load_distribution w ~n_nodes:50 ~seed:1L in
  Alcotest.(check int) "nodes" 50 p.P2prange.Scalability.n_nodes;
  Alcotest.(check int) "stored" 2500 p.P2prange.Scalability.n_partitions_stored;
  let s = p.P2prange.Scalability.per_node in
  Alcotest.(check (float 0.5)) "counts sum to total" 2500.0
    (Stats.Summary.total s);
  Alcotest.(check int) "every node counted" 50 (Stats.Summary.count s)

let truncate_slices () =
  let w = Lazy.force small_workload in
  let half = P2prange.Scalability.truncate w 250 in
  Alcotest.(check int) "half size" 250 (P2prange.Scalability.workload_size half);
  Alcotest.(check int) "half stored" 1250 (P2prange.Scalability.stored_count half);
  Alcotest.check_raises "oversize" (Invalid_argument "Scalability.truncate: bad size")
    (fun () -> ignore (P2prange.Scalability.truncate w 501))

let load_mean_scales_inversely () =
  let w = Lazy.force small_workload in
  let mean n =
    let p = P2prange.Scalability.load_distribution w ~n_nodes:n ~seed:2L in
    Stats.Summary.mean p.P2prange.Scalability.per_node
  in
  Alcotest.(check (float 1e-6)) "mean at 50 nodes" (2500.0 /. 50.0) (mean 50);
  Alcotest.(check (float 1e-6)) "mean at 200 nodes" (2500.0 /. 200.0) (mean 200)

let identifiers_spread_over_ring () =
  (* The large-domain workload must not collapse onto a few peers. XOR'd
     min-hash identifiers are clustered (each min-hash has structurally
     fixed zero bit-positions), so the distribution is skewed — the paper's
     Figure 11 likewise plots a very wide 1st–99th percentile band — but
     with 2500 entries over 100 nodes a clear majority of nodes must hold
     something. (A small-domain workload would put everything on ~1 node —
     see scalability.mli.) *)
  let w = Lazy.force small_workload in
  let p = P2prange.Scalability.load_distribution w ~n_nodes:100 ~seed:3L in
  Alcotest.(check bool)
    (Printf.sprintf "%d/100 empty" p.P2prange.Scalability.empty_nodes)
    true
    (p.P2prange.Scalability.empty_nodes < 80);
  let s = p.P2prange.Scalability.per_node in
  Alcotest.(check bool) "p99 > mean (Chord imbalance)" true
    (Stats.Summary.p99 s > Stats.Summary.mean s)

let path_lengths_logarithmic () =
  let w = Lazy.force small_workload in
  let mean n =
    let p = P2prange.Scalability.path_lengths w ~n_lookups:300 ~n_nodes:n ~seed:4L () in
    Stats.Summary.mean p.P2prange.Scalability.hops
  in
  let m16 = mean 16 and m512 = mean 512 in
  Alcotest.(check bool)
    (Printf.sprintf "hops grow with N: %.2f < %.2f" m16 m512)
    true (m16 < m512);
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f within [2.5, 7] for N=512" m512)
    true
    (m512 >= 2.5 && m512 <= 7.0)

let path_distribution_counts_all_lookups () =
  let w = Lazy.force small_workload in
  let p = P2prange.Scalability.path_lengths w ~n_lookups:200 ~n_nodes:64 ~seed:5L () in
  Alcotest.(check int) "5 samples per lookup" 1000
    (Stats.Summary.count p.P2prange.Scalability.hops);
  Alcotest.(check int) "histogram total matches" 1000
    (Stats.Histogram.total p.P2prange.Scalability.distribution)

let single_node_zero_hops () =
  let w = Lazy.force small_workload in
  let p = P2prange.Scalability.path_lengths w ~n_lookups:50 ~n_nodes:1 ~seed:6L () in
  Alcotest.(check (float 0.0)) "all zero hops" 0.0
    (Stats.Summary.max p.P2prange.Scalability.hops)

let deterministic () =
  let run () =
    let w = P2prange.Scalability.make_workload ~unique_partitions:200 ~seed:7L () in
    let p = P2prange.Scalability.load_distribution w ~n_nodes:30 ~seed:7L in
    Stats.Summary.p99 p.P2prange.Scalability.per_node
  in
  Alcotest.(check (float 0.0)) "same p99" (run ()) (run ())

(* On a 64-value domain with widths up to 4 there are only 240 distinct
   ranges, so drawing 200 unique ones repeats many draws. Only new draws
   may count towards the total, and the digest pins the identifiers the
   drawn ranges hash to. *)
let small_domain_repeated_draws () =
  let config =
    P2prange.Config.default
    |> P2prange.Config.with_domain (Rangeset.Range.make ~lo:0 ~hi:63)
  in
  let w =
    P2prange.Scalability.make_workload ~config ~unique_partitions:200
      ~max_width:4 ~seed:42L ()
  in
  Alcotest.(check int) "unique partitions" 200
    (P2prange.Scalability.workload_size w);
  Alcotest.(check int) "stored = unique × l" 1000
    (P2prange.Scalability.stored_count w);
  let ids = P2prange.Scalability.identifiers w in
  Alcotest.(check string) "identifiers" "e6b08b97038f45fd6ad927580d3cab6583d575da"
    (P2p_digest.Sha1.to_hex
       (P2p_digest.Sha1.digest_string
          (String.concat ";"
             (Array.to_list
                (Array.map
                   (fun l -> String.concat "," (List.map string_of_int l))
                   ids)))))

let validation () =
  let w = Lazy.force small_workload in
  Alcotest.check_raises "bad node count"
    (Invalid_argument "Scalability: n_nodes must be positive") (fun () ->
      ignore (P2prange.Scalability.load_distribution w ~n_nodes:0 ~seed:1L));
  Alcotest.check_raises "bad workload size"
    (Invalid_argument "Scalability.make_workload: need at least one partition")
    (fun () ->
      ignore (P2prange.Scalability.make_workload ~unique_partitions:0 ~seed:1L ()))

let suite =
  [
    Alcotest.test_case "stored partitions are conserved" `Quick load_conservation;
    Alcotest.test_case "truncate slices the workload" `Quick truncate_slices;
    Alcotest.test_case "mean load scales as 1/N" `Quick load_mean_scales_inversely;
    Alcotest.test_case "identifiers spread over the ring" `Quick
      identifiers_spread_over_ring;
    Alcotest.test_case "path lengths grow logarithmically" `Slow
      path_lengths_logarithmic;
    Alcotest.test_case "distribution covers every lookup" `Quick
      path_distribution_counts_all_lookups;
    Alcotest.test_case "single-node system has zero hops" `Quick
      single_node_zero_hops;
    Alcotest.test_case "deterministic per seed" `Quick deterministic;
    Alcotest.test_case "repeated draws on a small domain" `Quick
      small_domain_repeated_draws;
    Alcotest.test_case "validation" `Quick validation;
  ]

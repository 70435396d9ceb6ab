type outcome = { index : int; result : Query_result.t }

type run = {
  config : Config.t;
  n_queries : int;
  warmup : int;
  outcomes : outcome list;
}

let run ?(config = Config.default) ?(n_peers = 100) ?(n_queries = 10_000)
    ?(warmup_fraction = 0.2) ?(workload = Workload.Query_workload.Uniform_pairs)
    ~seed () =
  if warmup_fraction < 0.0 || warmup_fraction >= 1.0 then
    invalid_arg "Simulation.run: warmup_fraction must be in [0, 1)";
  let rng = Prng.Splitmix.create seed in
  let system_seed = Prng.Splitmix.next_int64 rng in
  let workload_seed = Prng.Splitmix.next_int64 rng in
  let system = System.create ~config ~seed:system_seed ~n_peers () in
  let stream =
    Workload.Query_workload.create workload ~domain:config.Config.domain
      ~seed:workload_seed
  in
  let peer_rng = Prng.Splitmix.split rng in
  let outcomes =
    List.init n_queries (fun index ->
        let from = System.random_peer system peer_rng in
        let result = System.query system ~from (Workload.Query_workload.next stream) in
        { index; result })
  in
  {
    config;
    n_queries;
    warmup = int_of_float (warmup_fraction *. float_of_int n_queries);
    outcomes;
  }

let measured run = List.filter (fun o -> o.index >= run.warmup) run.outcomes

let similarities run =
  List.map (fun o -> o.result.Query_result.similarity) (measured run)

let recalls run = List.map (fun o -> o.result.Query_result.recall) (measured run)

let similarity_histogram ?(bins = 10) run =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins in
  Stats.Histogram.add_many h (similarities run);
  h

let recall_cdf run = Stats.Cdf.of_samples (recalls run)

let mean_over run f =
  let xs = List.map f (measured run) in
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_hops run =
  mean_over run (fun o ->
      let hops = o.result.Query_result.stats.Query_result.hops in
      float_of_int (List.fold_left ( + ) 0 hops)
      /. float_of_int (Stdlib.max 1 (List.length hops)))

let mean_messages run =
  mean_over run (fun o -> float_of_int o.result.Query_result.stats.Query_result.messages)

let fraction_complete run =
  mean_over run (fun o -> if o.result.Query_result.recall >= 1.0 then 1.0 else 0.0)

let fraction_unmatched run =
  mean_over run (fun o ->
      match o.result.Query_result.matched with Some _ -> 0.0 | None -> 1.0)

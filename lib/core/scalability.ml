module Range = Rangeset.Range

type workload = {
  identifiers : int list array; (* per unique partition, its l identifiers *)
}

let default_config =
  {
    Config.default with
    Config.domain = Range.make ~lo:0 ~hi:((1 lsl 24) - 1);
    (* An RMQ cache over 2^24 values would be enormous; hash directly. *)
    use_domain_cache = false;
  }

(* Unique uniform ranges over the config's domain, widths in [1, max_width].
   Uses a set so the count is exact ("10^4 unique partitions"); [count]
   tracks its size, which grows only when a draw is new. *)
let unique_ranges rng ~domain ~max_width ~n =
  let module RSet = Set.Make (Range) in
  let hi_start = Range.hi domain - max_width in
  let rec grow set count =
    if count >= n then RSet.elements set
    else begin
      let lo = Prng.Splitmix.int_in_range rng ~lo:(Range.lo domain) ~hi:hi_start in
      let width = Prng.Splitmix.int_in_range rng ~lo:1 ~hi:max_width in
      let range = Range.make ~lo ~hi:(lo + width - 1) in
      if RSet.mem range set then grow set count
      else grow (RSet.add range set) (count + 1)
    end
  in
  grow RSet.empty 0

let make_workload ?(config = default_config) ?(unique_partitions = 10_000)
    ?(max_width = 200) ~seed () =
  Config.validate config;
  if unique_partitions < 1 then
    invalid_arg "Scalability.make_workload: need at least one partition";
  if max_width < 1 || max_width >= Range.cardinal config.Config.domain then
    invalid_arg "Scalability.make_workload: bad max_width";
  let rng = Prng.Splitmix.create seed in
  let scheme_rng = Prng.Splitmix.split rng in
  let scheme =
    Lsh.Scheme.create
      ~universe:(Range.hi config.Config.domain + 1)
      config.Config.family ~k:config.Config.k ~l:config.Config.l scheme_rng
  in
  let cache =
    if config.Config.use_domain_cache then
      Some (Lsh.Domain_cache.build scheme ~domain:config.Config.domain)
    else None
  in
  let ids_of range =
    let raw =
      match cache with
      | Some c -> Lsh.Domain_cache.identifiers c range
      | None -> Lsh.Scheme.identifiers_of_range scheme range
    in
    if config.Config.spread_identifiers then List.map Lsh.Mix32.mix raw else raw
  in
  let ranges =
    unique_ranges rng ~domain:config.Config.domain ~max_width ~n:unique_partitions
  in
  { identifiers = Array.of_list (List.map ids_of ranges) }

let workload_size w = Array.length w.identifiers
let identifiers w = Array.copy w.identifiers

let truncate w n =
  if n <= 0 || n > Array.length w.identifiers then
    invalid_arg "Scalability.truncate: bad size";
  { identifiers = Array.sub w.identifiers 0 n }

let stored_count w =
  Array.fold_left (fun acc ids -> acc + List.length ids) 0 w.identifiers

type load_point = {
  n_nodes : int;
  n_partitions_stored : int;
  per_node : Stats.Summary.t;
  empty_nodes : int;
}

let load_distribution w ~n_nodes ~seed =
  if n_nodes <= 0 then invalid_arg "Scalability: n_nodes must be positive";
  let rng = Prng.Splitmix.create seed in
  let ring = Chord.Ring.random rng ~n:n_nodes in
  let counts = Hashtbl.create n_nodes in
  let stored = ref 0 in
  Array.iter
    (fun ids ->
      List.iter
        (fun identifier ->
          let owner = Chord.Ring.owner ring identifier in
          Hashtbl.replace counts owner
            (1 + Option.value (Hashtbl.find_opt counts owner) ~default:0);
          incr stored)
        ids)
    w.identifiers;
  let per_node =
    Array.to_list (Chord.Ring.node_ids ring)
    |> List.map (fun id -> Option.value (Hashtbl.find_opt counts id) ~default:0)
  in
  {
    n_nodes;
    n_partitions_stored = !stored;
    per_node = Stats.Summary.of_int_list per_node;
    empty_nodes = List.length (List.filter (( = ) 0) per_node);
  }

type path_point = {
  n_nodes : int;
  hops : Stats.Summary.t;
  distribution : Stats.Histogram.t;
}

let path_lengths w ?(n_lookups = 10_000) ?(substrate = Config.Chord) ~n_nodes
    ~seed () =
  if n_nodes <= 0 then invalid_arg "Scalability: n_nodes must be positive";
  let rng = Prng.Splitmix.create seed in
  let ring = Chord.Ring.random rng ~n:n_nodes in
  (* Substrate construction draws no randomness, so the sampled lookups
     below are the same keys from the same sources for every substrate —
     the hop distributions compare like for like, and the Chord default
     replays the pre-substrate figure bit-identically. *)
  let routing = Routing.create ~substrate ring in
  let nodes = Chord.Ring.node_ids ring in
  let n_partitions = Array.length w.identifiers in
  let samples = ref [] in
  for _ = 1 to n_lookups do
    let ids = w.identifiers.(Prng.Splitmix.int rng n_partitions) in
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    List.iter
      (fun identifier ->
        let _, hops = Routing.lookup routing ~from ~key:identifier in
        samples := float_of_int hops :: !samples)
      ids
  done;
  let max_hop = List.fold_left Stdlib.max 0.0 !samples in
  let bins = Stdlib.max 1 (int_of_float max_hop + 1) in
  let distribution =
    Stats.Histogram.create ~lo:(-0.5) ~hi:(float_of_int bins -. 0.5) ~bins
  in
  Stats.Histogram.add_many distribution !samples;
  { n_nodes; hops = Stats.Summary.of_list !samples; distribution }

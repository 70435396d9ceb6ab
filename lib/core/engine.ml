module Range = Rangeset.Range
module R = Relational

type t = {
  config : Config.t;
  sources : (string, R.Relation.t) Hashtbl.t;
  systems : ((string * string) * System.t) list;
  (* Exact-match DHT for string-equality partitions: key identifier ->
     cached tuple set. Ownership/routing follows [routing]'s ring. *)
  exact : (int, R.Relation.t) Hashtbl.t;
  routing : System.t;
}

let create ?(config = Config.default) ~seed ~n_peers ~sources ~rangeable () =
  if sources = [] then invalid_arg "Engine.create: no source relations";
  let table = Hashtbl.create (List.length sources) in
  List.iter
    (fun rel ->
      let name = R.Relation.name rel in
      if Hashtbl.mem table name then
        invalid_arg "Engine.create: duplicate relation name";
      Hashtbl.replace table name rel)
    sources;
  let keys = List.map fst rangeable in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "Engine.create: duplicate rangeable pair";
  (* The engine publishes materialized partitions itself after source
     fetches, so the systems' range-only caching is turned off. *)
  let config = { config with Config.cache_on_inexact = false } in
  let rng = Prng.Splitmix.create seed in
  let systems =
    List.map
      (fun ((relation, attribute), domain) ->
        (match Hashtbl.find_opt table relation with
        | None ->
          invalid_arg "Engine.create: rangeable pair names an unknown relation"
        | Some rel ->
          if not (R.Schema.mem (R.Relation.schema rel) attribute) then
            invalid_arg "Engine.create: rangeable pair names an unknown attribute");
        let seed = Prng.Splitmix.next_int64 rng in
        ( (relation, attribute),
          System.create ~config:{ config with Config.domain } ~seed ~n_peers () ))
      rangeable
  in
  let routing =
    match systems with
    | (_, s) :: _ -> s
    | [] -> System.create ~config ~seed:(Prng.Splitmix.next_int64 rng) ~n_peers ()
  in
  { config; sources = table; systems; exact = Hashtbl.create 16; routing }

let source t name =
  match Hashtbl.find_opt t.sources name with
  | Some rel -> rel
  | None -> raise Not_found

let fail_peer t name =
  (* Every system shares the peer population; one physical failure takes
     the peer out of all of them (and out of exact-match routing's ring,
     whose owners keep answering — the exact DHT is engine-local state). *)
  let fail_in sys = System.fail_peer sys (System.peer_by_name sys name) in
  List.iter (fun (_, sys) -> fail_in sys) t.systems;
  if not (List.exists (fun (_, sys) -> sys == t.routing) t.systems) then
    fail_in t.routing

let recover_peer t name =
  (* Mirror of [fail_peer]: the peer comes back in every system at once,
     serving whatever its store held when it failed. *)
  let recover_in sys = System.recover_peer sys (System.peer_by_name sys name) in
  List.iter (fun (_, sys) -> recover_in sys) t.systems;
  if not (List.exists (fun (_, sys) -> sys == t.routing) t.systems) then
    recover_in t.routing

let system_for t ~relation ~attribute = List.assoc (relation, attribute) t.systems

type provenance =
  | From_cache of Query_result.t
  | From_source of { published : bool }
  | From_exact_dht of { hit : bool }
  | Full_relation

type leaf_report = {
  relation : string;
  predicates : R.Predicate.t list;
  provenance : provenance;
  tuples_fetched : int;
  recall_estimate : float;
}

type answer = {
  result : R.Relation.t;
  leaves : leaf_report list;
  messages : int;
  source_fetches : int;
  recall_estimate : float;
}

let empty_like rel = R.Relation.create ~name:(R.Relation.name rel) ~schema:(R.Relation.schema rel) []

(* --- exact-match leaves (string equality): classic DHT put/get --- *)

let exact_key ~relation ~attribute value =
  Chord.Id.of_name (Printf.sprintf "%s.%s=%s" relation attribute value)

let route_exact t ~from_name key_id =
  let from = System.peer_by_name t.routing from_name in
  let _, hops = System.lookup_position t.routing ~from ~key:key_id in
  hops + 1

let answer_exact t ~from_name ~relation ~attribute ~value ~allow_source msgs =
  let key_id = exact_key ~relation ~attribute value in
  msgs := !msgs + route_exact t ~from_name key_id;
  match Hashtbl.find_opt t.exact key_id with
  | Some data -> (data, From_exact_dht { hit = true }, 1.0, 0)
  | None ->
    let rel = source t relation in
    if allow_source then begin
      let schema = R.Relation.schema rel in
      let data =
        R.Relation.filter rel (fun tuple ->
            match R.Relation.get tuple schema attribute with
            | R.Value.String s -> s = value
            | R.Value.Int _ | R.Value.Float _ | R.Value.Date _ -> false)
      in
      (* Put: one more routed message to store at the owner. *)
      msgs := !msgs + route_exact t ~from_name key_id;
      Hashtbl.replace t.exact key_id data;
      (data, From_exact_dht { hit = false }, 1.0, 1)
    end
    else (empty_like rel, From_exact_dht { hit = false }, 0.0, 0)

(* --- range leaves: the paper's protocol --- *)

let answer_range t ~from_name ~relation ~attribute ~range ~allow_source msgs =
  let system = system_for t ~relation ~attribute in
  let from = System.peer_by_name system from_name in
  let qres = System.query system ~from range in
  msgs := !msgs + qres.Query_result.stats.Query_result.messages;
  let from_partition p =
    (* Ship only the overlap with the queried range. *)
    match Range.intersect (R.Partition.range p) range with
    | None -> None
    | Some overlap -> Some (R.Partition.data (R.Partition.restrict p overlap))
  in
  let cached_answer =
    match qres.Query_result.matched with
    | Some m -> (
      match m.Matching.entry.Store.partition with
      | Some p -> from_partition p
      | None -> None)
    | None -> None
  in
  match cached_answer with
  | Some data -> (data, From_cache qres, qres.Query_result.recall, 0)
  | None ->
    let rel = source t relation in
    if allow_source then begin
      let partition = R.Partition.of_relation rel ~attribute ~range in
      let stats = System.publish system ~from ~partition range in
      msgs := !msgs + stats.Query_result.messages;
      (R.Partition.data partition, From_source { published = true }, 1.0, 1)
    end
    else (empty_like rel, From_source { published = false }, 0.0, 0)

(* Pick the predicate the P2P layer can locate a partition for. *)
let locatable t ~relation preds =
  let usable pred =
    let attribute = pred.R.Predicate.attribute in
    match pred.R.Predicate.comparison with
    | R.Predicate.Eq (R.Value.String v) -> Some (`Exact (attribute, v))
    | R.Predicate.Eq _ | R.Predicate.Between _ | R.Predicate.At_most _
    | R.Predicate.At_least _ -> (
      match system_for t ~relation ~attribute with
      | exception Not_found -> None
      | system -> (
        let domain = (System.config system).Config.domain in
        match R.Predicate.to_range pred ~domain with
        | Some range -> Some (`Range (attribute, range))
        | None -> None))
  in
  List.find_map usable preds

let m_exec = Obs.Metrics.counter "engine.executions"
let m_messages = Obs.Metrics.counter "engine.messages"
let m_source_fetches = Obs.Metrics.counter "engine.source_fetches"
let m_from_cache = Obs.Metrics.counter "engine.leaf.from_cache"
let m_from_source = Obs.Metrics.counter "engine.leaf.from_source"
let m_exact_hit = Obs.Metrics.counter "engine.leaf.exact_dht_hit"
let m_exact_miss = Obs.Metrics.counter "engine.leaf.exact_dht_miss"
let m_full_relation = Obs.Metrics.counter "engine.leaf.full_relation"

let recall_bounds = Array.init 21 (fun i -> float_of_int i /. 20.0)

let h_recall =
  Obs.Metrics.histogram ~bounds:recall_bounds "engine.recall_estimate"

let record_provenance = function
  | From_cache _ -> Obs.Metrics.incr m_from_cache
  | From_source _ -> Obs.Metrics.incr m_from_source
  | From_exact_dht { hit = true } -> Obs.Metrics.incr m_exact_hit
  | From_exact_dht { hit = false } -> Obs.Metrics.incr m_exact_miss
  | Full_relation -> Obs.Metrics.incr m_full_relation

let provenance_label = function
  | From_cache _ -> "cache"
  | From_source { published = true } -> "source_published"
  | From_source { published = false } -> "source_skipped"
  | From_exact_dht { hit = true } -> "exact_dht_hit"
  | From_exact_dht { hit = false } -> "exact_dht_miss"
  | Full_relation -> "full_relation"

let answer_leaf t ~from_name ~allow_source (relation, preds) msgs =
  Obs.Trace.with_span "engine.leaf" (fun () ->
      Obs.Trace.set_string "relation" relation;
      let data, provenance, recall, fetches =
        match locatable t ~relation preds with
        | Some (`Exact (attribute, value)) ->
          answer_exact t ~from_name ~relation ~attribute ~value ~allow_source
            msgs
        | Some (`Range (attribute, range)) ->
          answer_range t ~from_name ~relation ~attribute ~range ~allow_source
            msgs
        | None ->
          (* No selection the DHT can serve: read the whole source. *)
          let rel = source t relation in
          if allow_source then (rel, Full_relation, 1.0, 1)
          else (empty_like rel, Full_relation, 0.0, 0)
      in
      record_provenance provenance;
      Obs.Trace.set_string "provenance" (provenance_label provenance);
      Obs.Trace.set_int "tuples" (R.Relation.cardinality data);
      ( {
          relation;
          predicates = preds;
          provenance;
          tuples_fetched = R.Relation.cardinality data;
          recall_estimate = recall;
        },
        data,
        fetches ))

let execute_plan t ~from_name ~allow_source plan =
  Obs.Trace.with_span "engine.execute" (fun () ->
  let leaves = R.Planner.leaf_selections plan in
  let msgs = ref 0 in
  let reports, fetched =
    List.fold_left
      (fun (reports, fetched) leaf ->
        let report, data, fetches =
          answer_leaf t ~from_name ~allow_source leaf msgs
        in
        ((report, fetches) :: reports, data :: fetched))
      ([], []) leaves
  in
  let reports = List.rev reports and fetched = List.rev fetched in
  (* Catalog: each leaf relation is replaced by what was fetched for it; a
     relation scanned at several leaves gets the union of its fetches (the
     plan's Selects re-filter per leaf). *)
  let overrides = Hashtbl.create 8 in
  List.iter2
    (fun ((report : leaf_report), _) data ->
      let merged =
        match Hashtbl.find_opt overrides report.relation with
        | Some prev -> R.Relation.union prev data
        | None -> data
      in
      Hashtbl.replace overrides report.relation merged)
    reports fetched;
  let catalog name =
    match Hashtbl.find_opt overrides name with
    | Some rel -> rel
    | None -> source t name
  in
  let result = R.Executor.run plan ~catalog in
  let source_fetches = List.fold_left (fun acc (_, f) -> acc + f) 0 reports in
  let recall_estimate =
    List.fold_left
      (fun acc ((r : leaf_report), _) -> Stdlib.min acc r.recall_estimate)
      1.0 reports
  in
  Obs.Metrics.incr m_exec;
  Obs.Metrics.add m_messages !msgs;
  Obs.Metrics.add m_source_fetches source_fetches;
  Obs.Metrics.observe h_recall recall_estimate;
  Obs.Trace.set_int "leaves" (List.length reports);
  Obs.Trace.set_int "messages" !msgs;
  Obs.Trace.set_int "source_fetches" source_fetches;
  Obs.Trace.set_float "recall_estimate" recall_estimate;
  { result; leaves = List.map fst reports; messages = !msgs; source_fetches; recall_estimate })

let schema_of t name = R.Relation.schema (source t name)

let execute t ~from_name ?(allow_source = true) query =
  execute_plan t ~from_name ~allow_source
    (R.Planner.push_selections query ~lookup:(schema_of t))

let execute_sql t ~from_name ?allow_source sql =
  execute t ~from_name ?allow_source
    (R.Sql.parse_query sql ~lookup:(schema_of t))

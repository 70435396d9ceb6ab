(* Rounds of one workload: set a fresh system up, run the op stream
   against it, and measure.

   An untraced round times every call with all [Obs] planes off. A
   traced round replays the same stream on a fresh system; before each
   call it replays the call's per-layer work as probes on an identically
   seeded twin that never serves ops (the store and balance-score probes
   read the measured system, read-only), and records a span around every
   call into the program. *)

module System = P2prange.System
module Config = P2prange.Config
module Store = P2prange.Store
module Matching = P2prange.Matching
module Peer = P2prange.Peer
module Range = Rangeset.Range
module W = Workloads

let quiet () =
  Obs.Metrics.disable ();
  Obs.Trace.disable ();
  Obs.Series.disable ()

let since t0 = float_of_int (Clock.now_ns () - t0) *. 1e-9

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create cap = { a = Array.make (Stdlib.max 16 cap) 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* What must come out identical from every run of one op stream. *)
type fingerprint = {
  summary : Answers.summary;
  digest : string;
  load_imbalance : float;
  live_words : int;
  invariant_violations : int;
  entries : int;
}

type round = {
  setup_s : float;
  phase_s : float;
  phase_cpu_s : float;  (** processor time of the timed phase *)
  ops : int;  (** queries and publishes *)
  call_ns : int array;
      (** latency of every call of the stream, by index; -1 where the
          call raised *)
  fp : fingerprint;
  checks : string list;  (** failed output checks *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  sig_hits : int;
  sig_lookups : int;
}

let setup (w : W.t) (stream : W.stream) =
  let sys =
    System.create ~config:w.W.config ~seed:w.W.system_seed ~n_peers:w.W.peers ()
  in
  let peers = Array.of_list (System.peers sys) in
  Array.iter
    (fun (p, r) -> ignore (System.publish sys ~from:peers.(p) r))
    stream.W.prepop_ops;
  (sys, peers)

(* A set-up alone, for runs with fewer rounds than set-up samples. *)
let setup_only w stream =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (setup w stream));
  since t0

let sig_counts sys =
  match System.signature_cache sys with
  | None -> (0, 0)
  | Some c -> (Lsh.Sig_cache.hits c, Lsh.Sig_cache.hits c + Lsh.Sig_cache.misses c)

let total_ops (stream : W.stream) =
  Array.fold_left (fun acc op -> acc + W.op_count op) 0 stream.W.calls

(* After the timed phase: the end-of-phase readings, then recover-all
   and repair, then the invariant audit. [on_recover] times those calls
   in a traced round. *)
let finish ?(on_recover = fun _ f -> f ()) sys peers answers ~fault_free =
  let load_imbalance = System.load_imbalance sys in
  let live_words = Obj.reachable_words (Obj.repr sys) in
  let entries = System.total_entries sys in
  Array.iter
    (fun p ->
      if not (System.alive sys p) then
        on_recover `Recover (fun () -> System.recover_peer sys p))
    peers;
  on_recover `Repair (fun () -> System.repair sys);
  let invariant_violations = List.length (System.check_invariants sys) in
  ( {
      summary = Answers.summary answers;
      digest = Answers.digest answers;
      load_imbalance;
      live_words;
      invariant_violations;
      entries;
    },
    Answers.check answers ~fault_free )

let untraced (w : W.t) (stream : W.stream) =
  quiet ();
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let sys, peers = setup w stream in
  let setup_s = since t0 in
  let ops = total_ops stream in
  let answers = Answers.create ops in
  let calls = stream.W.calls in
  let call_ns = Array.make (Array.length calls) (-1) in
  let hits0, lookups0 = sig_counts sys in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let phase0 = Clock.now_ns () in
  for i = 0 to Array.length calls - 1 do
    let t = Clock.now_ns () in
    match calls.(i) with
    | W.Query (p, r) -> (
      match System.query sys ~from:peers.(p) r with
      | res ->
        call_ns.(i) <- Clock.now_ns () - t;
        Answers.record_query answers r res
      | exception _ -> Answers.record_failure answers ~query:true r)
    | W.Publish (p, r) -> (
      match System.publish sys ~from:peers.(p) r with
      | stats ->
        call_ns.(i) <- Clock.now_ns () - t;
        Answers.record_publish answers r stats
      | exception _ -> Answers.record_failure answers ~query:false r)
    | W.Batch (p, rs) -> (
      match System.query_batch sys ~from:peers.(p) rs with
      | results ->
        call_ns.(i) <- Clock.now_ns () - t;
        List.iter2 (Answers.record_query answers) rs results
      | exception _ ->
        List.iter (Answers.record_failure answers ~query:true) rs)
    | W.Fail p ->
      System.fail_peer sys peers.(p);
      call_ns.(i) <- Clock.now_ns () - t
    | W.Recover p ->
      System.recover_peer sys peers.(p);
      call_ns.(i) <- Clock.now_ns () - t
  done;
  let phase_s = since phase0 in
  let phase_cpu_s = Sys.time () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let hits1, lookups1 = sig_counts sys in
  let fp, checks = finish sys peers answers ~fault_free:(W.fault_free w) in
  {
    setup_s;
    phase_s;
    phase_cpu_s;
    ops;
    call_ns;
    fp;
    checks;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    sig_hits = hits1 - hits0;
    sig_lookups = lookups1 - lookups0;
  }

(* {1 Traced rounds} *)

type layers = {
  phase_s : float;
  ops : int;
  fp : fingerprint;
  checks : string list;
  spans : Spans.t;
  probe_ns : int;  (** all probe spans, summed *)
  sig_us : float array;  (** per op, like every per-op array below *)
  route_us : float array;
  store_us : float array;  (** queries only *)
  values_hashed : int;
  raw_hash_ns : int;
  route_ns : int;
  hops : int;
  shortcuts : int;
  full_walks : int;
  store_probes : int;
  candidates : int;
  useful : int;
  batch_ids : int;
  batch_repeats : int;
  batches : int;
  batch_peers : int;
  recover_ms : float array;
  scores_us : float array;
  parked_hints_max : int;
  replicated_max : int;
  migrations : int;
  queries : int;
  sends : int;
  retries : int;
  timeouts : int;
  ring_build_ms : float;
  domain_cache_build_ms : float;
  ring_words : int;
}

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let planner_period (c : Config.t) =
  match c.Config.balancing with
  | Config.Migrate m | Config.Replicate_and_migrate { migrate = m; _ } ->
    Some m.Config.check_every
  | Config.No_balancing | Config.Replicate _ -> None

let traced (w : W.t) (stream : W.stream) =
  quiet ();
  Gc.compact ();
  let config = w.W.config in
  let sys, peers = setup w stream in
  let twin =
    System.create ~config ~seed:w.W.system_seed ~n_peers:w.W.peers ()
  in
  let twin_peers = Array.of_list (System.peers twin) in
  (* The twin's signature memo goes through the same ranges as the
     measured system's, so probes hit and miss where the real ops do. *)
  Array.iter
    (fun (_, r) -> ignore (System.identifiers twin r))
    stream.W.prepop_ops;
  let ring = System.ring twin in
  let kl = config.Config.k * config.Config.l in
  let raw_hashing r =
    not
      (config.Config.use_domain_cache
      && Range.contains ~outer:config.Config.domain ~inner:r)
  in
  let twin_misses () =
    match System.signature_cache twin with
    | None -> 0
    | Some c -> Lsh.Sig_cache.misses c
  in
  (* Faults counters come from the program's metrics registry, enabled
     only around the measured system's calls and only where a fault plane
     exists; the probes never run with it on. *)
  let metrics = Option.is_some config.Config.faults in
  let real f =
    if metrics then begin
      Obs.Metrics.enable ();
      Fun.protect ~finally:Obs.Metrics.disable f
    end
    else f ()
  in
  let sends0 = counter "faults.sends"
  and retries0 = counter "faults.retries"
  and timeouts0 = counter "faults.timeouts" in
  let spans = Spans.create () in
  let n name = Spans.intern spans name in
  let s_op = n "op"
  and s_sig = n "lsh.signature"
  and s_route = n "route.lookup"
  and s_owner = n "store.owner"
  and s_match = n "store.match"
  and s_scores = n "balance.scores"
  and s_query = n "system.query"
  and s_publish = n "system.publish"
  and s_batch = n "system.query_batch"
  and s_fail = n "system.fail_peer"
  and s_recover = n "system.recover_peer"
  and s_repair = n "system.repair"
  and s_ring = n "chord.ring_build"
  and s_dcache = n "lsh.domain_cache_build" in
  let values_hashed = ref 0 and raw_hash_ns = ref 0 in
  let hops = ref 0 and shortcuts = ref 0 and full_walks = ref 0 in
  let store_probes = ref 0 and candidates = ref 0 and useful = ref 0 in
  let batch_ids = ref 0 and batch_repeats = ref 0 and batches = ref 0 in
  let batch_peers = ref 0 in
  let queries = ref 0 in
  let parked_hints_max = ref 0 and replicated_max = ref 0 in
  let period = planner_period config in
  let ops = total_ops stream in
  let answers = Answers.create ops in
  let calls = stream.W.calls in
  (* One range's probes: signature, then each identifier's route (and, on
     a batch, only identifiers this batch has not routed yet), then for a
     query each identifier's bucket match on the measured system. *)
  let probe ~op ~parent ~from ?batch ~query r =
    let misses = twin_misses () in
    let sid = Spans.open_ spans ~name:s_sig ~parent ~op in
    let ids = System.identifiers twin r in
    Spans.close spans sid;
    if twin_misses () > misses && raw_hashing r then begin
      values_hashed := !values_hashed + (Range.cardinal r * kl);
      raw_hash_ns := !raw_hash_ns + (spans.Spans.stop.(sid) - spans.Spans.start.(sid))
    end;
    List.iter
      (fun id ->
        (match batch with
        | None ->
          Spans.with_span spans ~name:s_route ~parent ~op (fun () ->
              let _, h =
                System.lookup_position twin ~from:twin_peers.(from) ~key:id
              in
              hops := !hops + h)
        | Some (cache, seen) ->
          incr batch_ids;
          if Hashtbl.mem seen id then incr batch_repeats
          else begin
            let pos =
              Spans.with_span spans ~name:s_route ~parent ~op (fun () ->
                  let pos, h =
                    Chord.Ring.lookup_via ring cache
                      ~from:(Peer.id twin_peers.(from)) ~key:id
                  in
                  hops := !hops + h;
                  pos)
            in
            Hashtbl.replace seen id pos
          end);
        if query then begin
          let owner =
            Spans.with_span spans ~name:s_owner ~parent ~op (fun () ->
                System.owner_of_identifier sys id)
          in
          let bucket, best =
            Spans.with_span spans ~name:s_match ~parent ~op (fun () ->
                let bucket = Store.peek_bucket (Peer.store owner) ~identifier:id in
                (bucket, Matching.best config.Config.matching ~query:r bucket))
          in
          incr store_probes;
          candidates := !candidates + List.length bucket;
          if Option.is_some best then incr useful
        end)
      ids
  in
  let score_probe ~op ~parent =
    match period with
    | Some every when !queries mod every = 0 && !queries > 0 ->
      Spans.with_span spans ~name:s_scores ~parent ~op (fun () ->
          ignore
            (Sys.opaque_identity
               (Balance.Tracker.windowed_scores (System.tracker sys))))
    | Some _ | None -> ()
  in
  let after_churn () =
    parked_hints_max := Stdlib.max !parked_hints_max (System.parked_hints sys)
  in
  let phase0 = Clock.now_ns () in
  for op = 0 to Array.length calls - 1 do
    let parent = Spans.open_ spans ~name:s_op ~parent:(-1) ~op in
    (match calls.(op) with
    | W.Query (p, r) -> (
      probe ~op ~parent ~from:p ~query:true r;
      score_probe ~op ~parent;
      incr queries;
      match
        Spans.with_span spans ~name:s_query ~parent ~op (fun () ->
            real (fun () -> System.query sys ~from:peers.(p) r))
      with
      | res -> Answers.record_query answers r res
      | exception _ -> Answers.record_failure answers ~query:true r)
    | W.Publish (p, r) -> (
      probe ~op ~parent ~from:p ~query:false r;
      match
        Spans.with_span spans ~name:s_publish ~parent ~op (fun () ->
            real (fun () -> System.publish sys ~from:peers.(p) r))
      with
      | stats -> Answers.record_publish answers r stats
      | exception _ -> Answers.record_failure answers ~query:false r)
    | W.Batch (p, rs) -> (
      let cache = Chord.Ring.Route_cache.create () and seen = Hashtbl.create 64 in
      List.iter
        (fun r ->
          probe ~op ~parent ~from:p ~batch:(cache, seen) ~query:true r;
          score_probe ~op ~parent;
          incr queries)
        rs;
      incr batches;
      shortcuts := !shortcuts + Chord.Ring.Route_cache.shortcuts cache;
      full_walks := !full_walks + Chord.Ring.Route_cache.full_walks cache;
      let owners = Hashtbl.create 64 in
      Hashtbl.iter (fun _ pos -> Hashtbl.replace owners pos ()) seen;
      batch_peers := !batch_peers + Hashtbl.length owners;
      match
        Spans.with_span spans ~name:s_batch ~parent ~op (fun () ->
            real (fun () -> System.query_batch sys ~from:peers.(p) rs))
      with
      | results -> List.iter2 (Answers.record_query answers) rs results
      | exception _ -> List.iter (Answers.record_failure answers ~query:true) rs)
    | W.Fail p ->
      Spans.with_span spans ~name:s_fail ~parent ~op (fun () ->
          real (fun () -> System.fail_peer sys peers.(p)));
      after_churn ()
    | W.Recover p ->
      Spans.with_span spans ~name:s_recover ~parent ~op (fun () ->
          real (fun () -> System.recover_peer sys peers.(p)));
      after_churn ());
    replicated_max := Stdlib.max !replicated_max (System.replicated_buckets sys);
    Spans.close spans parent
  done;
  let phase_s = since phase0 in
  let migrations = System.migrations sys in
  let sends = counter "faults.sends" - sends0
  and retries = counter "faults.retries" - retries0
  and timeouts = counter "faults.timeouts" - timeouts0 in
  let fp, checks =
    finish sys peers answers ~fault_free:(W.fault_free w)
      ~on_recover:(fun kind f ->
        let name = match kind with `Recover -> s_recover | `Repair -> s_repair in
        Spans.with_span spans ~name ~parent:(-1) ~op:(-1) (fun () -> real f))
  in
  (* Recovery work exists only where peers fail; elsewhere the final
     repair is a no-op and is not sampled. *)
  let recover_ms =
    if w.W.traffic <> W.Churn then [||]
    else
      Array.append
        (Spans.durations spans "system.recover_peer")
        (Spans.durations spans "system.repair")
      |> Array.map (fun ns -> ns *. 1e-6)
  in
  let probe_ms name f =
    let id = Spans.open_ spans ~name ~parent:(-1) ~op:(-1) in
    ignore (Sys.opaque_identity (f ()));
    Spans.close spans id;
    float_of_int (spans.Spans.stop.(id) - spans.Spans.start.(id)) *. 1e-6
  in
  let ring_build_ms =
    let ids = Array.to_list (Chord.Ring.node_ids (System.ring sys)) in
    probe_ms s_ring (fun () -> Chord.Ring.create ~ids)
  in
  let domain_cache_build_ms =
    if not config.Config.use_domain_cache then 0.0
    else
      (* The scheme is the first draw from the system seed, exactly as
         [System.create] draws it. *)
      let scheme =
        Lsh.Scheme.create
          ~universe:(Range.hi config.Config.domain + 1)
          config.Config.family ~k:config.Config.k ~l:config.Config.l
          (Prng.Splitmix.create w.W.system_seed)
      in
      probe_ms s_dcache (fun () ->
          Lsh.Domain_cache.build scheme ~domain:config.Config.domain)
  in
  let ring_words = Obj.reachable_words (Obj.repr (System.ring sys)) in
  (* Per-op probe times: a call's summed probe self time split evenly
     over the ops it carries, one sample per op. *)
  let per_op name ~only_queries =
    let by_call = Spans.self_by_op spans ~ops:(Array.length calls) name in
    let out = Samples.create ops in
    Array.iteri
      (fun i op ->
        let count = W.op_count op in
        let is_query = match op with W.Publish _ -> false | _ -> true in
        if count > 0 && ((not only_queries) || is_query) then
          let v = float_of_int by_call.(i) *. 1e-3 /. float_of_int count in
          for _ = 1 to count do
            Samples.add out v
          done)
      calls;
    Samples.to_array out
  in
  let probe_ns =
    List.fold_left
      (fun acc name -> acc + fst (Spans.total spans name))
      0
      [ "lsh.signature"; "route.lookup"; "store.owner"; "store.match"; "balance.scores" ]
  in
  {
    phase_s;
    ops;
    fp;
    checks;
    spans;
    probe_ns;
    sig_us = per_op "lsh.signature" ~only_queries:false;
    route_us = per_op "route.lookup" ~only_queries:false;
    store_us = per_op "store.match" ~only_queries:true;
    values_hashed = !values_hashed;
    raw_hash_ns = !raw_hash_ns;
    route_ns = fst (Spans.total spans "route.lookup");
    hops = !hops;
    shortcuts = !shortcuts;
    full_walks = !full_walks;
    store_probes = !store_probes;
    candidates = !candidates;
    useful = !useful;
    batch_ids = !batch_ids;
    batch_repeats = !batch_repeats;
    batches = !batches;
    batch_peers = !batch_peers;
    recover_ms;
    scores_us = Array.map (fun ns -> ns *. 1e-3) (Spans.durations spans "balance.scores");
    parked_hints_max = !parked_hints_max;
    replicated_max = !replicated_max;
    migrations;
    queries = !queries;
    sends;
    retries;
    timeouts;
    ring_build_ms;
    domain_cache_build_ms;
    ring_words;
  }

module Range = Rangeset.Range

type replication_state = {
  r : int;
  replicas : (int, int list) Hashtbl.t; (* identifier -> replica positions *)
  tie_rng : Prng.Splitmix.t;
}

type t = {
  config : Config.t;
  scheme : Lsh.Scheme.t;
  cache : Lsh.Domain_cache.t option;
  sig_cache : Lsh.Sig_cache.t option;
  routing : Routing.t; (* the substrate wrapping the ring *)
  peers : (int, Peer.t) Hashtbl.t; (* keyed by ring position, [Peer.id] *)
  by_name : (string, Peer.t) Hashtbl.t;
  peer_list : Peer.t array;
  peer_ids : int list Lazy.t;
      (* [Peer.id] of [peer_list], in order; only the planner forces it *)
  padding : Padding.t;
  tracker : Balance.Tracker.t;
  replication : replication_state option;
  migration : Balance.Migration.t option;
  dead : (int, unit) Hashtbl.t; (* ids of failed peers *)
  faults : (Faults.Plane.t * Faults.Retry.policy) option;
  (* identifier -> ring positions holding parked hints for it, oldest
     first: successors that took a publish for a dead home, and native
     owners that took a write for a down slice holder. Only ever
     populated when [Config.hinted_handoff] is on. *)
  hints : (int, int list) Hashtbl.t;
}

let create_with_peers ?(config = Config.default) ~seed names =
  Config.validate config;
  if names = [] then
    Error.raise_error Error.Invalid_topology "System: need at least one peer";
  let rng = Prng.Splitmix.create seed in
  let scheme =
    Lsh.Scheme.create
      ~universe:(Range.hi config.Config.domain + 1)
      config.Config.family ~k:config.Config.k ~l:config.Config.l rng
  in
  let cache =
    if config.Config.use_domain_cache then
      Some (Lsh.Domain_cache.build scheme ~domain:config.Config.domain)
    else None
  in
  let sig_cache =
    if config.Config.signature_cache > 0 then
      Some (Lsh.Sig_cache.create ~capacity:config.Config.signature_cache)
    else None
  in
  let peer_list =
    Array.of_list
      (List.map
         (fun name -> Peer.create ~policy:config.Config.store_policy ~name ())
         names)
  in
  let peers = Hashtbl.create (Array.length peer_list) in
  let by_name = Hashtbl.create (Array.length peer_list) in
  Array.iter
    (fun p ->
      if Hashtbl.mem peers (Peer.id p) then
        Error.raise_error
          ~context:[ ("peer", Peer.name p) ]
          Error.Invalid_topology
          "System: ring position collision (rename a peer)";
      Hashtbl.replace peers (Peer.id p) p;
      Hashtbl.replace by_name (Peer.name p) p)
    peer_list;
  let ring =
    Chord.Ring.create ~ids:(Hashtbl.fold (fun id _ acc -> id :: acc) peers [])
  in
  (* Substrate construction (including the learned fit) is deterministic
     and draws nothing from [rng], so the streams below are identical
     whichever substrate is selected. *)
  let routing = Routing.create ~substrate:config.Config.substrate ring in
  let tracker =
    match config.Config.balancing with
    | Config.Replicate { hot; window; _ }
    | Config.Replicate_and_migrate { replicate = { hot; window; _ }; _ } ->
      Balance.Tracker.create ~window hot
    | Config.Migrate { window; _ } ->
      (* Nothing ever goes hot without replication, but the windowed
         identifier scores still steer the planner's half selection. *)
      Balance.Tracker.create ~window (Balance.Tracker.Absolute max_int)
    | Config.No_balancing ->
      (* Still tallies per-peer load for reporting; nothing ever goes hot. *)
      Balance.Tracker.create (Balance.Tracker.Absolute max_int)
  in
  let replication =
    match config.Config.balancing with
    | Config.No_balancing | Config.Migrate _ -> None
    | Config.Replicate { r; _ }
    | Config.Replicate_and_migrate { replicate = { r; _ }; _ } ->
      Some
        {
          r;
          replicas = Hashtbl.create 64;
          (* Split after every other stream has been drawn, so turning
             replication on leaves the scheme's hash functions untouched. *)
          tie_rng = Prng.Splitmix.split rng;
        }
  in
  let migration =
    (* The planner draws no randomness at all, so a [Migrate]-only system
       consumes exactly the same PRNG stream as [No_balancing]. *)
    match config.Config.balancing with
    | Config.No_balancing | Config.Replicate _ -> None
    | Config.Migrate m | Config.Replicate_and_migrate { migrate = m; _ } ->
      Some
        (Balance.Migration.create
           {
             Balance.Migration.check_every = m.Config.check_every;
             overload = m.Config.overload;
             cooldown = m.Config.cooldown;
             min_share = m.Config.min_share;
           })
  in
  let faults =
    match config.Config.faults with
    | None -> None
    | Some { Config.spec; retry } ->
      (* The plane's seed is drawn only when a plane exists, so fault-free
         systems consume exactly the pre-plane PRNG stream. *)
      let plane_seed = Prng.Splitmix.next_int64 rng in
      Some (Faults.Plane.create ~spec ~seed:plane_seed (), retry)
  in
  {
    config;
    scheme;
    cache;
    sig_cache;
    routing;
    peers;
    by_name;
    peer_list;
    peer_ids = lazy (Array.to_list (Array.map Peer.id peer_list));
    padding = Padding.create config.Config.padding;
    tracker;
    replication;
    migration;
    dead = Hashtbl.create 8;
    faults;
    hints = Hashtbl.create 8;
  }

let create ?config ~seed ~n_peers () =
  if n_peers <= 0 then
    Error.raise_error
      ~context:[ ("n_peers", string_of_int n_peers) ]
      Error.Invalid_topology "System.create: n_peers must be positive";
  create_with_peers ?config ~seed
    (List.init n_peers (Printf.sprintf "peer-%d"))

let config t = t.config
let routing t = t.routing
let ring t = Routing.ring t.routing
let peers t = Array.to_list t.peer_list
let peer_count t = Array.length t.peer_list

let peer_by_id t id = Hashtbl.find t.peers id
let peer_by_name t name = Hashtbl.find t.by_name name

let random_peer t rng =
  t.peer_list.(Prng.Splitmix.int rng (Array.length t.peer_list))

(* The one owner-resolution call in the system. Placement, migration
   redirects and external owner queries all come through here, so the
   first-at-or-after rule cannot drift between call sites and every
   substrate answers it the same way. *)
let position_of t identifier = Routing.owner t.routing identifier
let owner_of_identifier t identifier = peer_by_id t (position_of t identifier)

let tracker t = t.tracker

let alive t peer = not (Hashtbl.mem t.dead (Peer.id peer))

(* Alive and outside any fault-plane crash window — the peers worth
   contacting. Identical to [alive] when no plane is configured. *)
let responsive t peer =
  alive t peer
  &&
  match t.faults with
  | None -> true
  | Some (plane, _) -> not (Faults.Plane.crashed plane (Peer.id peer))

let fault_plane t = Option.map fst t.faults

(* One retried owner contact from the querying peer, crossing [legs]
   overlay hops per attempt (each hop is an independent chance to lose the
   message). True when the contact lands within the retry budget; always
   true without a plane. *)
let contact_peer t ~from ~peer ~legs =
  match t.faults with
  | None -> true
  | Some (plane, retry) ->
    Result.is_ok
      (Faults.Plane.rpc plane ~retry ~src:(Peer.id from) ~dst:(Peer.id peer)
         ~legs ())

(* One tick of the logical clocks per protocol operation: the fault
   plane's (crash windows, message fates) and the series recorder's
   (window flushing) advance together, so timeline marks emitted by the
   plane line up with the sampled curves. *)
let tick_faults t =
  Obs.Series.tick ();
  match t.faults with
  | None -> ()
  | Some (plane, _) -> Faults.Plane.tick plane

(* Membership churn reaches the substrate at the peer's ring position:
   Chord's static fingers ignore it, the learned model invalidates the
   covering segments (and eventually retrains). *)
let note_churn t peer = Routing.note_churn t.routing ~position:(Peer.id peer)

let fail_peer t peer =
  if not (Hashtbl.mem t.by_name (Peer.name peer)) then
    Error.raise_error
      ~context:[ ("peer", Peer.name peer) ]
      Error.Unknown_peer "System.fail_peer: unknown peer";
  Hashtbl.replace t.dead (Peer.id peer) ();
  Obs.Series.mark_s "system.fail_peer" "peer" (Peer.name peer);
  note_churn t peer

(* [recover_peer] is defined below [repair], which recovery triggers
   when hinted handoff is on. *)

let load_imbalance t =
  Balance.Tracker.load_imbalance t.tracker ~peers:(Array.length t.peer_list)

let replicated_buckets t =
  match t.replication with
  | None -> 0
  | Some rs -> Hashtbl.length rs.replicas

let migrated_slices t =
  match t.migration with
  | None -> 0
  | Some mg -> Balance.Migration.slice_count mg

let migrations t =
  match t.migration with
  | None -> 0
  | Some mg -> Balance.Migration.migrations mg

let m_cache_hit = Obs.Metrics.counter "lsh.domain_cache.hit"
let m_cache_miss = Obs.Metrics.counter "lsh.domain_cache.miss"

let compute_identifiers t range =
  let raw =
    match t.cache with
    | Some cache
      when Range.contains ~outer:(Lsh.Domain_cache.domain cache) ~inner:range ->
      Obs.Metrics.incr m_cache_hit;
      Lsh.Domain_cache.identifiers cache range
    | Some _ | None ->
      Obs.Metrics.incr m_cache_miss;
      Lsh.Scheme.identifiers_of_range t.scheme range
  in
  if t.config.Config.spread_identifiers then List.map Lsh.Mix32.mix raw
  else raw

(* Identifiers are pure functions of the (canonical) range, so the LRU
   signature memo in front never changes results — it only skips the
   domain-cache / raw-hashing work for ranges seen recently. *)
let identifiers t range =
  match t.sig_cache with
  | None -> compute_identifiers t range
  | Some cache ->
    Lsh.Sig_cache.find_or_compute cache ~lo:(Range.lo range) ~hi:(Range.hi range)
      (fun () -> compute_identifiers t range)

let signature_cache t = t.sig_cache

(* The signature stage of a traced query/publish: one span covering the
   sig-cache probe and (on a miss) the per-group hashing spans recorded
   by [Lsh.Scheme]. *)
let traced_identifiers t range =
  Obs.Trace.with_span "signature" (fun () ->
      Obs.Trace.set_int "lo" (Range.lo range);
      Obs.Trace.set_int "hi" (Range.hi range);
      let ids = identifiers t range in
      Obs.Trace.set_int "identifiers" (List.length ids);
      ids)

let padding_fraction t = Padding.current_fraction t.padding

(* Route each identifier from the requesting peer; return owners with hop
   counts. Owners may repeat when consecutive identifiers share a segment. *)
let route_all t ~from ids =
  List.map
    (fun identifier ->
      let owner, hops =
        Routing.lookup t.routing ~from:(Peer.id from) ~key:identifier
      in
      (identifier, peer_by_id t owner, hops))
    ids

(* One substrate lookup from a peer — the routed position and its hop
   count, for callers (Engine) that price their own messages. *)
let lookup_position t ~from ~key =
  Routing.lookup t.routing ~from:(Peer.id from) ~key

let stats_of_hops ids hops =
  {
    Query_result.identifiers = ids;
    hops;
    messages = List.fold_left (fun acc h -> acc + h + 1) 0 hops;
  }

let m_publishes = Obs.Metrics.counter "system.publishes"
let m_queries = Obs.Metrics.counter "system.queries"
let m_messages = Obs.Metrics.counter "system.messages"
let m_cached_answers = Obs.Metrics.counter "system.cached_answers"
let m_unmatched = Obs.Metrics.counter "system.unmatched"
let m_replications = Obs.Metrics.counter "balance.replications"
let m_replicated_entries = Obs.Metrics.counter "balance.replicated_entries"
let m_replica_hits = Obs.Metrics.counter "balance.replica_hits"
let m_failovers = Obs.Metrics.counter "balance.failovers"
let m_replica_drops = Obs.Metrics.counter "balance.replica_drops"
let g_imbalance = Obs.Metrics.gauge "balance.load_imbalance"
let m_migrations = Obs.Metrics.counter ~label:"peer" "balance.migrations"
let m_migrated_entries = Obs.Metrics.counter "balance.migrated_entries"
let m_migration_redirects = Obs.Metrics.counter "balance.migration_redirects"
let m_migration_fallbacks = Obs.Metrics.counter "balance.migration_fallbacks"
let g_migrated_slices = Obs.Metrics.gauge "balance.migrated_slices"
let m_hints_parked = Obs.Metrics.counter ~label:"peer" "system.hints_parked"
let m_hint_failures = Obs.Metrics.counter "system.hint_failures"
let m_hint_serves = Obs.Metrics.counter ~label:"peer" "system.hint_serves"
let m_hints_replayed = Obs.Metrics.counter "system.hints_replayed"
let m_replica_resyncs = Obs.Metrics.counter "balance.replica_resyncs"
let m_repairs = Obs.Metrics.counter "system.repairs"

(* Serves per peer: with the per-peer hint and migration counters above,
   the timeline shows which peer did the work. *)
let m_peer_serves = Obs.Metrics.counter ~label:"peer" "system.peer_serves"

(* The one bucket copy: slice migration, replica fills, hint replay and
   replica re-sync all go through here. Entries go oldest first, and
   insertion prepends, so [dst] ends up with [src]'s bucket order and
   [Matching.select] breaks ties the same way on either peer. Entries [dst]
   already holds are skipped; returns how many were copied. *)
let copy_bucket ~src ~dst ~identifier =
  List.fold_left
    (fun copied entry ->
      if Store.insert (Peer.store dst) ~identifier entry then copied + 1
      else copied)
    0
    (List.rev (Store.peek_bucket (Peer.store src) ~identifier))

let replicas_of t identifier =
  match t.replication with
  | None -> []
  | Some rs -> Option.value (Hashtbl.find_opt rs.replicas identifier) ~default:[]

(* Ring positions holding parked hints for [identifier], oldest first. *)
let hint_holders t identifier =
  Option.value (Hashtbl.find_opt t.hints identifier) ~default:[]

let add_hint_holder t identifier position =
  let holders = hint_holders t identifier in
  if not (List.mem position holders) then
    Hashtbl.replace t.hints identifier (holders @ [ position ])

(* Where a migrated slice puts an identifier's bucket: nowhere new (the
   routed owner keeps it), at its responsive slice holder, or back on the
   native owner because the holder (its id) is unresponsive. *)
type home = Native | Holder of Peer.t | Fallback of int

(* Read-only: no Metrics or Trace call, so audits, repair and publish's
   filter can ask freely. Redirect pointers live in the routing layer, so
   they apply whether or not the native owner is up. On a [Fallback] the
   native owner's bucket moved away, so a lookup degrades into an empty
   answer instead of raising, and the slice stays put for when the holder
   recovers. *)
let resolve_home t ~identifier =
  match t.migration with
  | None -> Native
  | Some mg -> (
    match
      Balance.Migration.holder mg ~position:(position_of t identifier)
        ~identifier
    with
    | None -> Native
    | Some target ->
      let holder = peer_by_id t target in
      if responsive t holder then Holder holder else Fallback target)

let home_of t ~identifier ~owner =
  match resolve_home t ~identifier with
  | Holder holder -> holder
  | Native | Fallback _ -> owner

(* A write or a serve that lands on the native owner because the slice
   holder is down: recorded once per landing, where it lands. *)
let note_fallback ~identifier ~holder =
  Obs.Metrics.incr m_migration_fallbacks;
  Obs.Trace.event_ii "balance.migration_fallback" "identifier" identifier
    "holder" holder

(* Execute a planned migration: move every bucket of the slice from the
   source to the target. Background maintenance traffic — not charged to
   any query's message count, see DESIGN decision 16. *)
let apply_move t (mv : Balance.Migration.move) =
  Obs.Trace.with_span "balance.migrate" (fun () ->
      Obs.Trace.set_int "position" mv.Balance.Migration.position;
      Obs.Trace.set_int "source" mv.Balance.Migration.source;
      Obs.Trace.set_int "target" mv.Balance.Migration.target;
      Obs.Trace.set_int "lo" mv.Balance.Migration.lo;
      Obs.Trace.set_int "hi" mv.Balance.Migration.hi;
      let source = peer_by_id t mv.Balance.Migration.source in
      let target = peer_by_id t mv.Balance.Migration.target in
      let moved = ref 0 in
      List.iter
        (fun identifier ->
          if
            Chord.Id.in_interval_oc identifier ~lo:mv.Balance.Migration.lo
              ~hi:mv.Balance.Migration.hi
          then begin
            ignore (copy_bucket ~src:source ~dst:target ~identifier : int);
            moved := !moved + Store.remove_bucket (Peer.store source) ~identifier
          end)
        (Store.identifiers (Peer.store source));
      Obs.Metrics.incr1 m_migrations (Peer.name target);
      Obs.Metrics.add m_migrated_entries !moved;
      Obs.Series.mark_i "balance.migrate" "position" mv.Balance.Migration.position;
      Obs.Trace.set_int "entries" !moved)

(* One planner tick per query on the logical clock. Runs right after the
   fault plane ticks, so liveness judgements match what this query will
   see. *)
let migrate_tick t =
  match t.migration with
  | None -> ()
  | Some mg -> (
    match
      Balance.Migration.tick mg
        ~peers:(Lazy.force t.peer_ids)
        ~responsive:(fun pid -> responsive t (peer_by_id t pid))
        ~predecessor:(Chord.Ring.predecessor (ring t))
        ~scores:(fun () -> Balance.Tracker.windowed_scores t.tracker)
    with
    | None -> ()
    | Some mv ->
      apply_move t mv;
      if Obs.Metrics.recording () then
        Obs.Metrics.set_gauge g_migrated_slices
          (float_of_int (Balance.Migration.slice_count mg)))

let store_at_owners t routes ~range ~partition =
  let entry = { Store.range; partition } in
  List.iter
    (fun (identifier, owner, _) ->
      let home =
        match resolve_home t ~identifier with
        | Native -> owner
        | Holder holder -> holder
        | Fallback holder ->
          note_fallback ~identifier ~holder;
          (* With hints on, the native owner holds the write as a hint, so
             [repair] moves it to the holder once the holder is back. *)
          if t.config.Config.hinted_handoff && responsive t owner then
            add_hint_holder t identifier (Peer.id owner);
          owner
      in
      if responsive t home then
        ignore (Store.insert (Peer.store home) ~identifier entry : bool);
      (* Keep live replicas of a replicated bucket in step with it. *)
      List.iter
        (fun position ->
          let rp = peer_by_id t position in
          if responsive t rp then
            ignore (Store.insert (Peer.store rp) ~identifier entry : bool))
        (replicas_of t identifier))
    routes

(* Hinted handoff (only with [Config.hinted_handoff]): a publish whose
   home peer is dead or unreachable after retries parks the tuple at the
   first live successor of the owner's ring position instead of losing
   it. The hint is stored physically in the holder's bucket (so it can be
   served degraded from there) and recorded in the registry for replay by
   [repair]. The walk takes the successors one at a time and stops at the
   first that accepts. *)
let park_hint t ~from ~identifier ~hops entry =
  Obs.Trace.with_span "hint.park" (fun () ->
      Obs.Trace.set_int "identifier" identifier;
      let position = position_of t identifier in
      let r = ring t in
      (* Tries [cpos], then the nodes after it: [left] nodes in all, so
         every node but [position] once, nearest first. *)
      let rec try_park cpos left =
        if left = 0 then begin
          Obs.Metrics.incr m_hint_failures;
          Obs.Trace.set_bool "parked" false
        end
        else
          let cp = peer_by_id t cpos in
          if responsive t cp && contact_peer t ~from ~peer:cp ~legs:(hops + 2)
          then begin
            ignore (Store.insert (Peer.store cp) ~identifier entry : bool);
            add_hint_holder t identifier cpos;
            Obs.Metrics.incr1 m_hints_parked (Peer.name cp);
            Obs.Trace.set_bool "parked" true;
            Obs.Trace.set_int "holder" cpos;
            Obs.Trace.event_ii "system.hint_parked" "identifier" identifier
              "holder" cpos
          end
          else try_park (Chord.Ring.successor r cpos) (left - 1)
      in
      try_park (Chord.Ring.successor r position) (Chord.Ring.size r - 1))

let parked_hints t = Hashtbl.length t.hints

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

(* Anti-entropy reconciliation after faults heal. Two deterministic
   passes with zero PRNG draws — identifiers in sorted order, bucket
   entries through [copy_bucket], like replica copies and migrations:

   + every parked hint whose home peer is responsive again replays into
     the home bucket and leaves the holder (unless the holder doubles as
     a registered replica of the identifier). A hint's home is the
     identifier's slice holder whenever a migration moved it, down or
     not: a hint the native owner took for a down holder waits for that
     holder instead of replaying onto the owner itself;
   + every registered replica set re-syncs from its responsive home, so
     replicas that missed inserts while crashed stop serving stale
     buckets.

   Triggered by {!recover_peer} when hinted handoff is on; after a
   partition heal the caller runs it explicitly ([Plane.heal] cannot see
   the system). A no-op when [Config.hinted_handoff] is unset. *)
let repair t =
  if t.config.Config.hinted_handoff then
    Obs.Trace.with_span "repair" (fun () ->
        Obs.Series.mark "system.repair";
        let replayed = ref 0 and resynced = ref 0 in
        let owner identifier = owner_of_identifier t identifier in
        List.iter
          (fun identifier ->
            let home =
              match resolve_home t ~identifier with
              | Native -> owner identifier
              | Holder holder -> holder
              | Fallback holder -> peer_by_id t holder
            in
            if responsive t home then begin
              let remaining =
                List.filter
                  (fun hpos ->
                    let hp = peer_by_id t hpos in
                    if not (responsive t hp) then true (* replay later *)
                    else begin
                      replayed :=
                        !replayed + copy_bucket ~src:hp ~dst:home ~identifier;
                      if
                        Peer.id hp <> Peer.id home
                        && not (List.mem hpos (replicas_of t identifier))
                      then
                        ignore
                          (Store.remove_bucket (Peer.store hp) ~identifier
                            : int);
                      Obs.Trace.event_ii "system.hint_replayed" "identifier"
                        identifier "holder" hpos;
                      false
                    end)
                  (hint_holders t identifier)
              in
              if remaining = [] then Hashtbl.remove t.hints identifier
              else Hashtbl.replace t.hints identifier remaining
            end)
          (sorted_keys t.hints);
        (match t.replication with
        | None -> ()
        | Some rs ->
          List.iter
            (fun identifier ->
              let home = home_of t ~identifier ~owner:(owner identifier) in
              if responsive t home then
                List.iter
                  (fun position ->
                    let rp = peer_by_id t position in
                    if Peer.id rp <> Peer.id home && responsive t rp then
                      resynced :=
                        !resynced + copy_bucket ~src:home ~dst:rp ~identifier)
                  (replicas_of t identifier))
            (sorted_keys rs.replicas));
        Obs.Metrics.incr m_repairs;
        Obs.Metrics.add m_hints_replayed !replayed;
        Obs.Metrics.add m_replica_resyncs !resynced;
        Obs.Trace.set_int "hints_replayed" !replayed;
        Obs.Trace.set_int "replicas_resynced" !resynced)

let recover_peer t peer =
  if not (Hashtbl.mem t.by_name (Peer.name peer)) then
    Error.raise_error
      ~context:[ ("peer", Peer.name peer) ]
      Error.Unknown_peer "System.recover_peer: unknown peer";
  Hashtbl.remove t.dead (Peer.id peer);
  Obs.Series.mark_s "system.recover_peer" "peer" (Peer.name peer);
  note_churn t peer;
  (* The recovered peer comes back with whatever its store held; the
     repair pass then replays what it missed (hints parked for its
     buckets) and re-syncs its replica copies. Gated, so recovery is
     bit-identical to older builds when hints are off. *)
  if t.config.Config.hinted_handoff then repair t

(* Create or refresh the replica set of a hot identifier, or lazily drop
   the replicas of one that has cooled since its last lookup. Copies are
   pull-style: whatever the owner's bucket currently holds is mirrored to
   any replica missing it. *)
let maintain_replicas t rs ~identifier ~owner =
  if Balance.Tracker.is_hot t.tracker identifier then begin
    let desired =
      (* The set is headed by the identifier's ring owner. *)
      List.tl
        (Balance.Replicas.replica_set (ring t)
           ~alive:(fun position -> responsive t (peer_by_id t position))
           ~identifier ~r:rs.r ())
    in
    let existing = replicas_of t identifier in
    if desired <> [] && existing = [] then Obs.Metrics.incr m_replications;
    if desired <> existing then Hashtbl.replace rs.replicas identifier desired;
    if responsive t owner then
      List.iter
        (fun position ->
          let copied =
            copy_bucket ~src:owner ~dst:(peer_by_id t position) ~identifier
          in
          if copied > 0 then Obs.Metrics.add m_replicated_entries copied)
        desired
  end
  else
    match Hashtbl.find_opt rs.replicas identifier with
    | None -> ()
    | Some positions ->
      List.iter
        (fun position ->
          ignore
            (Store.remove_bucket (Peer.store (peer_by_id t position))
               ~identifier
              : int))
        positions;
      Hashtbl.remove rs.replicas identifier;
      Obs.Metrics.incr m_replica_drops

(* Who answers the lookup for [identifier] after routing reached [owner]:
   with replication off, the owner (nobody if it failed); with it on, the
   least-loaded live peer among the owner and the identifier's current
   replicas, ties broken by the dedicated replication PRNG stream. *)
let serving_peer t ~identifier ~owner =
  match t.replication with
  | None -> if responsive t owner then Some owner else None
  | Some rs -> (
    let members =
      owner :: List.map (peer_by_id t) (replicas_of t identifier)
      |> List.filter (responsive t)
    in
    match members with
    | [] -> None
    | [ only ] -> Some only
    | _ :: _ :: _ ->
      Obs.Trace.event_ii "balance.candidates" "identifier" identifier "count"
        (List.length members);
      let scored =
        List.map
          (fun p -> (Balance.Tracker.peer_load t.tracker (Peer.id p), p))
          members
      in
      let min_load =
        List.fold_left (fun acc (load, _) -> Stdlib.min acc load) max_int scored
      in
      let minima = List.filter (fun (load, _) -> load = min_load) scored in
      (match minima with
      | [ (_, p) ] -> Some p
      | _ ->
        Some
          (snd
             (List.nth minima (Prng.Splitmix.int rs.tie_rng (List.length minima))))))

(* Degraded fallback when nobody in the owner/replica set answered: the
   first responsive hint holder of the identifier (oldest hint first)
   serves its parked bucket, at one forward hop past the owner's
   segment. Consumes plane draws only when hints are on, so unset runs
   replay bit-identically. *)
let hint_serve t ~contact ~effective ~identifier ~hops =
  if not t.config.Config.hinted_handoff then None
  else
    let rec try_holders = function
      | [] -> None
      | hpos :: rest ->
        let hp = peer_by_id t hpos in
        if responsive t hp && contact hp ~hops:(hops + 1) then begin
          let reply =
            Matching.select t.config.Config.matching ~query:effective
              (Store.fold_bucket (Peer.store hp) ~identifier)
          in
          Balance.Tracker.record_query t.tracker ~peer:(Peer.id hp) ~identifier;
          Some (reply, hpos)
        end
        else try_holders rest
    in
    try_holders (hint_holders t identifier)

(* One serve per routed identifier: pick the serving peer, contact it
   across the fault plane (one retried RPC spanning the route's hops),
   then read its reply {e before} charging the lookup and letting hotness
   maintenance react — maintenance may wipe the very bucket just served (a
   cooled replica). A serve by a non-owner costs one extra overlay hop
   (the forward from the owner's segment to the chosen successor). The
   [responded] flag distinguishes "answered with nothing matching" from
   "never answered" — only the latter degrades the query. *)
(* [batched] only affects trace attribution: a standalone query charges
   each serve [hops + 1] messages, so its serve span carries that as
   "msgs"; inside a batch the per-query cost is the fresh route hops and
   fresh contacts recorded by [query_batch], so serve spans carry none. *)
let serve_routes t ~contact ~effective ~batched routes =
  List.map
    (fun (identifier, owner, hops) ->
      Obs.Trace.with_span "serve" (fun () ->
          Obs.Trace.set_int "identifier" identifier;
          Obs.Trace.set_int "owner" (Peer.id owner);
          Obs.Trace.set_int "route_hops" hops;
          (* Migrated slices pull the lookup's home off the native owner
             before replica selection even starts. *)
          let home, redirected =
            match resolve_home t ~identifier with
            | Native -> (owner, false)
            | Holder holder ->
              Obs.Metrics.incr m_migration_redirects;
              Obs.Trace.set_int "home" (Peer.id holder);
              Obs.Trace.event_ii "balance.migration_redirect" "identifier"
                identifier "holder" (Peer.id holder);
              (holder, true)
            | Fallback holder ->
              note_fallback ~identifier ~holder;
              (owner, false)
          in
          (* Nobody in the owner/replica set answered: fall back to a
             parked hint before giving the lookup up. *)
          let unanswered () =
            match hint_serve t ~contact ~effective ~identifier ~hops with
            | Some (reply, hpos) ->
              Obs.Metrics.incr1 m_hint_serves (Peer.name (peer_by_id t hpos));
              Obs.Trace.set_bool "responded" true;
              Obs.Trace.set_bool "hinted" true;
              Obs.Trace.event_ii "system.hint_serve" "identifier" identifier
                "holder" hpos;
              (identifier, hops + 1, reply, true)
            | None ->
              Obs.Trace.set_bool "responded" false;
              (identifier, hops, None, false)
          in
          let result =
            match serving_peer t ~identifier ~owner:home with
            | None -> unanswered ()
            | Some peer ->
              Obs.Trace.set_int "peer" (Peer.id peer);
              if not (contact peer ~hops) then unanswered ()
              else begin
                let reply =
                  let matching = t.config.Config.matching in
                  if t.config.Config.peer_index then
                    Matching.best matching ~query:effective
                      (Store.all_entries (Peer.store peer))
                  else
                    Matching.select matching ~query:effective
                      (Store.fold_bucket (Peer.store peer) ~identifier)
                in
                Balance.Tracker.record_query t.tracker ~peer:(Peer.id peer)
                  ~identifier;
                Obs.Metrics.incr1 m_peer_serves (Peer.name peer);
                (match t.migration with
                | Some mg ->
                  (* The planner's round loads: the actual server for
                     overload detection, the served segment for choosing
                     what an overloaded holder sheds. *)
                  Balance.Migration.note_serve mg
                    ~position:(position_of t identifier) ~identifier
                    ~peer:(Peer.id peer)
                | None -> ());
                (match t.replication with
                | Some rs -> maintain_replicas t rs ~identifier ~owner:home
                | None -> ());
                let hops =
                  (* One extra overlay hop per forward: native owner to
                     slice holder, and holder to a replica serving in its
                     stead. *)
                  let forward =
                    (if redirected then 1 else 0)
                    + if Peer.id peer = Peer.id home then 0 else 1
                  in
                  if forward = 0 then hops
                  else begin
                    (if Peer.id peer <> Peer.id home then
                       if responsive t home then begin
                         Obs.Metrics.incr m_replica_hits;
                         Obs.Trace.event_ii "balance.replica_hit" "owner"
                           (Peer.id home) "serving" (Peer.id peer)
                       end
                       else begin
                         Obs.Metrics.incr m_failovers;
                         Obs.Trace.event_ii "balance.failover" "owner"
                           (Peer.id home) "serving" (Peer.id peer)
                       end);
                    Obs.Trace.set_bool "forwarded" true;
                    hops + forward
                  end
                in
                Obs.Trace.set_bool "responded" true;
                (identifier, hops, reply, true)
              end
          in
          (if not batched then
             let _, served_hops, _, _ = result in
             Obs.Trace.set_int "msgs" (served_hops + 1));
          result))
    routes

let serve_all t ~from ~effective routes =
  serve_routes t ~effective ~batched:false routes ~contact:(fun peer ~hops ->
      contact_peer t ~from ~peer ~legs:(hops + 1))

let recall_bounds = Array.init 21 (fun i -> float_of_int i /. 20.0)
let h_recall = Obs.Metrics.histogram ~bounds:recall_bounds "system.query.recall"
let h_query_messages = Obs.Metrics.histogram "system.query.messages"

let m_degraded = Obs.Metrics.counter "system.degraded_queries"
let m_unanswered_owners = Obs.Metrics.counter "system.unanswered_owners"

(* [List.filter] that returns its input list itself when [keep] holds for
   every element, so a publish that drops no route copies nothing. [keep]
   runs once per element, in order. *)
let rec filter_shared keep = function
  | [] -> []
  | x :: rest as l ->
    let kept = keep x in
    let rest' = filter_shared keep rest in
    if not kept then rest' else if rest' == rest then l else x :: rest'

let publish t ~from ?partition range =
  Obs.Trace.with_span "publish" (fun () ->
      Obs.Trace.set_string "from" (Peer.name from);
      Obs.Trace.set_int "lo" (Range.lo range);
      Obs.Trace.set_int "hi" (Range.hi range);
      tick_faults t;
      let ids = traced_identifiers t range in
      let routes = route_all t ~from ids in
      (* Each owner store is one retried contact across the plane; an owner
         that never answers simply misses this publication — unless hinted
         handoff is on, in which case the tuple parks at the first live
         successor instead. With hints on, retries come first (dead peers
         under a plane still cost their timeout), then liveness: a
         fail_peer'ed home answers the plane but must not keep the only
         copy. *)
      let hinted = t.config.Config.hinted_handoff in
      let reached =
        filter_shared
          (fun (identifier, owner, hops) ->
            let home = home_of t ~identifier ~owner in
            let ok =
              contact_peer t ~from ~peer:home ~legs:(hops + 1)
              && ((not hinted) || responsive t home)
            in
            if (not ok) && hinted then
              park_hint t ~from ~identifier ~hops { Store.range; partition };
            ok)
          routes
      in
      store_at_owners t reached ~range ~partition;
      let stats = stats_of_hops ids (List.map (fun (_, _, h) -> h) routes) in
      Obs.Metrics.incr m_publishes;
      Obs.Metrics.add m_messages stats.messages;
      Obs.Trace.set_int "messages" stats.messages;
      stats)

(* Everything downstream of the owners' replies — best-reply selection,
   cache-on-inexact write-back, padding feedback, metrics — shared verbatim
   by the single-query and batched paths. [messages] is the overlay traffic
   this query is charged for: Σ(hops+1) over its lookups when standalone,
   only the newly-caused traffic inside a batch. *)
let finish_query_untraced t ~range ~effective ~ids ~routes ~served ~messages =
  let replies = List.filter_map (fun (_, _, reply, _) -> reply) served in
  let responders =
    List.fold_left
      (fun acc (_, _, _, responded) -> if responded then acc + 1 else acc)
      0 served
  in
  let degraded = responders < List.length served in
  let matched =
    match replies with
    | [] -> None
    | first :: rest -> Some (List.fold_left Matching.better first rest)
  in
  let similarity, recall =
    match matched with
    | None -> (0.0, 0.0)
    | Some m ->
      ( Range.jaccard range m.Matching.entry.Store.range,
        Range.containment ~query:range ~answer:m.Matching.entry.Store.range )
  in
  let exact =
    match matched with
    | Some m -> Matching.is_exact ~query:effective m
    | None -> false
  in
  let cached = t.config.Config.cache_on_inexact && not exact in
  (* The cache write piggybacks on the query's round-trip, so under a
     fault plane it reaches exactly the owners that answered; fault-free
     runs keep the original full-route behavior. *)
  let cache_routes =
    match t.faults with
    | None -> routes
    | Some _ ->
      List.filter_map
        (fun (route, (_, _, _, responded)) ->
          if responded then Some route else None)
        (List.combine routes served)
  in
  if cached then store_at_owners t cache_routes ~range:effective ~partition:None;
  Padding.observe t.padding ~recall;
  let stats =
    {
      Query_result.identifiers = ids;
      hops = List.map (fun (_, h, _, _) -> h) served;
      messages;
    }
  in
  Obs.Metrics.incr m_queries;
  Obs.Metrics.add m_messages stats.Query_result.messages;
  if cached then Obs.Metrics.incr m_cached_answers;
  (match matched with None -> Obs.Metrics.incr m_unmatched | Some _ -> ());
  if degraded then Obs.Metrics.incr m_degraded;
  Obs.Metrics.add m_unanswered_owners (List.length served - responders);
  Obs.Metrics.observe h_recall recall;
  Obs.Metrics.observe_int h_query_messages stats.Query_result.messages;
  if Obs.Metrics.recording () then
    Obs.Metrics.set_gauge g_imbalance (load_imbalance t);
  {
    Query_result.query = range;
    effective;
    matched;
    similarity;
    recall;
    stats;
    cached;
    responders;
    degraded;
  }

let finish_query t ~range ~effective ~ids ~routes ~served ~messages =
  let result =
    Obs.Trace.with_span "assemble" (fun () ->
        finish_query_untraced t ~range ~effective ~ids ~routes ~served ~messages)
  in
  (* Query-level verdicts go on the enclosing "query" span (the caller
     always opens one), where bin/trace.exe reads them back: the
     "messages" attribute is what the span-level "msgs" attribution must
     sum to. *)
  Obs.Trace.set_int "messages" result.Query_result.stats.Query_result.messages;
  Obs.Trace.set_float "recall" result.Query_result.recall;
  Obs.Trace.set_bool "degraded" result.Query_result.degraded;
  Obs.Trace.set_int "responders" result.Query_result.responders;
  Obs.Trace.set_bool "matched" (Option.is_some result.Query_result.matched);
  Obs.Trace.set_bool "cached" result.Query_result.cached;
  result

let query t ~from range =
  Obs.Trace.with_span "query" (fun () ->
      Obs.Trace.set_string "from" (Peer.name from);
      Obs.Trace.set_int "lo" (Range.lo range);
      Obs.Trace.set_int "hi" (Range.hi range);
      tick_faults t;
      migrate_tick t;
      let effective =
        Padding.apply t.padding range ~domain:t.config.Config.domain
      in
      let ids = traced_identifiers t effective in
      let routes = route_all t ~from ids in
      (* Each serving peer replies with its best local candidate; identifiers
         whose owner failed with no replica to fail over to — or whose contact
         ran out its retry budget — go unanswered. *)
      let served = serve_all t ~from ~effective routes in
      let messages =
        List.fold_left (fun acc (_, h, _, _) -> acc + h + 1) 0 served
      in
      finish_query t ~range ~effective ~ids ~routes ~served ~messages)

let m_batches = Obs.Metrics.counter "system.batch.batches"
let m_batch_queries = Obs.Metrics.counter "system.batch.queries"
let m_batch_id_hits = Obs.Metrics.counter "system.batch.identifier_hits"
let m_batch_coalesced = Obs.Metrics.counter "system.batch.coalesced_contacts"

let query_batch t ~from ranges =
  match ranges with
  | [] -> []
  | [ range ] ->
    (* A batch of one takes the single-query path by construction, so it
       is bit-identical to [query]. *)
    [ query t ~from range ]
  | _ :: _ :: _ ->
    Obs.Trace.with_span "batch" (fun () ->
        Obs.Trace.set_int "size" (List.length ranges);
        Obs.Metrics.incr m_batches;
        (* Shared state of this batch round: node addresses learned by earlier
           finger walks, resolved identifier routes, and the outcome of each
           serving-peer contact (a batch is one message round per peer — later
           identifiers served by an already-contacted peer ride the same
           request/reply pair for free). Memos remember the span that paid
           for the shared work, so later queries' trace events can point
           back at it instead of re-recording the cost. *)
        let route_cache = Routing.new_cache t.routing in
        let id_memo = Hashtbl.create 32 in
        let contact_memo = Hashtbl.create 32 in
        let here () = Option.value (Obs.Trace.current_id ()) ~default:0 in
        List.mapi
          (fun index range ->
            Obs.Trace.with_span "query" (fun () ->
                Obs.Trace.set_string "from" (Peer.name from);
                Obs.Trace.set_int "lo" (Range.lo range);
                Obs.Trace.set_int "hi" (Range.hi range);
                Obs.Trace.set_int "batch_index" index;
                tick_faults t;
                migrate_tick t;
                Obs.Metrics.incr m_batch_queries;
                let effective =
                  Padding.apply t.padding range ~domain:t.config.Config.domain
                in
                let ids = traced_identifiers t effective in
                let new_msgs = ref 0 in
                let routes =
                  List.map
                    (fun identifier ->
                      match Hashtbl.find_opt id_memo identifier with
                      | Some (owner, hops, resolved_in) ->
                        Obs.Metrics.incr m_batch_id_hits;
                        Obs.Trace.event_ii "batch.id_memo_hit" "identifier"
                          identifier "resolved_in" resolved_in;
                        (identifier, owner, hops)
                      | None ->
                        Obs.Trace.with_span "route" (fun () ->
                            Obs.Trace.set_int "identifier" identifier;
                            let owner_pos, hops =
                              Routing.lookup_via t.routing route_cache
                                ~from:(Peer.id from) ~key:identifier
                            in
                            let owner = peer_by_id t owner_pos in
                            Hashtbl.replace id_memo identifier
                              (owner, hops, here ());
                            new_msgs := !new_msgs + hops;
                            Obs.Trace.set_int "hops" hops;
                            Obs.Trace.set_int "msgs" hops;
                            (identifier, owner, hops)))
                    ids
                in
                let contact peer ~hops =
                  match Hashtbl.find_opt contact_memo (Peer.id peer) with
                  | Some (ok, first_in) ->
                    Obs.Metrics.incr m_batch_coalesced;
                    Obs.Trace.event_ii "batch.contact_coalesced" "peer"
                      (Peer.id peer) "first_in" first_in;
                    ok
                  | None ->
                    let ok = contact_peer t ~from ~peer ~legs:(hops + 1) in
                    Hashtbl.replace contact_memo (Peer.id peer) (ok, here ());
                    (* One request plus one reply per distinct peer per
                       round. *)
                    new_msgs := !new_msgs + 2;
                    Obs.Trace.event_ii "contact" "peer" (Peer.id peer) "msgs" 2;
                    ok
                in
                let served =
                  serve_routes t ~contact ~effective ~batched:true routes
                in
                finish_query t ~range ~effective ~ids ~routes ~served
                  ~messages:!new_msgs))
          ranges)

(* Whole-system consistency audit, read-only and PRNG-free. Returns one
   structured finding per violation (empty = healthy): an [Error.t] with
   code [Broken_invariant], the human-readable line as its message, and
   the invariant family plus offending identifiers as context — never
   raised, only reported. bin/doctor.exe surfaces it as a CLI (JSON under
   [--json]) and the chaos bench asserts it at every phase boundary. *)
let check_invariants_detailed t =
  let violations = ref [] in
  let note invariant context fmt =
    Printf.ksprintf
      (fun message ->
        violations :=
          {
            Error.code = Error.Broken_invariant;
            message;
            context = ("invariant", invariant) :: context;
          }
          :: !violations)
      fmt
  in
  let pos p = ("position", string_of_int p) in
  let ident i = ("identifier", string_of_int i) in
  let r = ring t in
  let ids = Chord.Ring.node_ids r in
  let n = Array.length ids in
  (* 1. Ring structure: sorted distinct positions, a consistent successor
     chain, self-ownership, and a peer behind every position. *)
  Array.iteri
    (fun i id ->
      if i > 0 && ids.(i - 1) >= id then
        note "ring" [ pos id ] "ring: node ids not strictly ascending at %d" id;
      let succ = Chord.Ring.successor r id in
      let expected = ids.((i + 1) mod n) in
      if succ <> expected then
        note "ring"
          [ pos id; ("successor", string_of_int succ) ]
          "ring: successor(%d) = %d, expected %d" id succ expected;
      if Chord.Ring.owner r id <> id then
        note "ring" [ pos id ] "ring: position %d does not own itself" id;
      if not (Hashtbl.mem t.peers id) then
        note "ring" [ pos id ] "ring: position %d has no peer behind it" id)
    ids;
  Hashtbl.iter
    (fun position _ ->
      if not (Chord.Ring.contains r position) then
        note "ring" [ pos position ] "ring: peer position %d is not on the ring"
          position)
    t.peers;
  (* 2. Data reachability: every bucket stored anywhere must be servable
     from its home (owner or migration holder), a responsive registered
     replica, or a responsive hint holder. *)
  let checked = Hashtbl.create 64 in
  let reachable identifier =
    let serves peer =
      responsive t peer && Store.peek_bucket (Peer.store peer) ~identifier <> []
    in
    let serves_at position = serves (peer_by_id t position) in
    serves (home_of t ~identifier ~owner:(owner_of_identifier t identifier))
    || List.exists serves_at (replicas_of t identifier)
    || List.exists serves_at (hint_holders t identifier)
  in
  Array.iter
    (fun p ->
      List.iter
        (fun identifier ->
          if not (Hashtbl.mem checked identifier) then begin
            Hashtbl.replace checked identifier ();
            if not (reachable identifier) then
              note "data"
                [ ident identifier; ("stored_at", Peer.name p) ]
                "data: bucket %d (stored at %s) unreachable from its home, \
                 replicas and hints"
                identifier (Peer.name p)
          end)
        (Store.identifiers (Peer.store p)))
    t.peer_list;
  (* 3. Replica sets: known distinct positions, on alive peers, never the
     identifier's own home peer. *)
  (match t.replication with
  | None -> ()
  | Some rs ->
    List.iter
      (fun identifier ->
        let positions = replicas_of t identifier in
        let owner = owner_of_identifier t identifier in
        if
          List.length (List.sort_uniq Int.compare positions)
          <> List.length positions
        then
          note "replicas" [ ident identifier ]
            "replicas: identifier %d has duplicate positions" identifier;
        List.iter
          (fun rpos ->
            match Hashtbl.find_opt t.peers rpos with
            | None ->
              note "replicas"
                [ ident identifier; pos rpos ]
                "replicas: identifier %d names unknown position %d" identifier
                rpos
            | Some rp ->
              if not (alive t rp) then
                note "replicas"
                  [ ident identifier; ("peer", Peer.name rp) ]
                  "replicas: identifier %d kept on dead peer %s" identifier
                  (Peer.name rp);
              if Peer.id rp = Peer.id owner then
                note "replicas"
                  [ ident identifier; ("peer", Peer.name rp) ]
                  "replicas: identifier %d replicated onto its own owner %s"
                  identifier (Peer.name rp))
          positions)
      (sorted_keys rs.replicas));
  (* 4. Migration segments tile each split position's circular
     (predecessor, position] interval exactly: chained lo->hi with no
     gap, overlap, or leftover. *)
  (match t.migration with
  | None -> ()
  | Some mg ->
    List.iter
      (fun position ->
        let segs = Balance.Migration.segments mg ~position in
        let pred = Chord.Ring.predecessor r position in
        let rec chain cursor remaining =
          match remaining with
          | [] ->
            if cursor <> position then
              note "migration"
                [ pos position; ("cursor", string_of_int cursor) ]
                "migration: position %d segments stop at %d" position cursor
          | _ -> (
            match
              List.partition (fun (lo, _, _) -> lo = cursor) remaining
            with
            | [ (_, hi, _) ], rest -> chain hi rest
            | [], _ ->
              note "migration"
                [ pos position; ("cursor", string_of_int cursor) ]
                "migration: position %d segments leave a gap at %d" position
                cursor
            | _ :: _ :: _, _ ->
              note "migration"
                [ pos position; ("cursor", string_of_int cursor) ]
                "migration: position %d segments overlap at %d" position cursor)
        in
        chain pred segs)
      (Balance.Migration.split_positions mg));
  List.rev !violations

let check_invariants t =
  List.map (fun v -> v.Error.message) (check_invariants_detailed t)

let total_entries t =
  Array.fold_left (fun acc p -> acc + Peer.load p) 0 t.peer_list

let total_evictions t =
  Array.fold_left
    (fun acc p -> acc + Store.evictions (Peer.store p))
    0 t.peer_list

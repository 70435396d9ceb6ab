(** System-wide parameters of the range-selection engine.

    The defaults reproduce the paper's experimental setting: approximate
    min-wise hashing with [(k, l) = (20, 5)] over the attribute domain
    [\[0, 1000\]], Jaccard bucket matching, no padding, cache-on-inexact. *)

type matching =
  | Jaccard_match
      (** rank bucket candidates by Jaccard similarity to the query (§5.1) *)
  | Containment_match
      (** rank by the fraction of the query they cover (§5.2, Fig. 9) *)

type padding =
  | No_padding
  | Fixed_padding of float
      (** expand the query range by this fraction per edge before hashing,
          matching and caching (§5.2, Fig. 10; the paper uses 0.2) *)
  | Adaptive_padding of { initial : float; step : float; target_recall : float }
      (** the paper's future-work idea: per-system padding level nudged up
          when recent recall falls below [target_recall], down otherwise *)

type replicate = { r : int; hot : Balance.Tracker.hot_policy; window : int }
(** Hot-bucket replication (§5.3): copy a bucket judged hot (per [hot]
    over sliding windows of [window] lookups) onto the owner's first [r]
    ring successors, and serve lookups from the least-loaded live
    holder. *)

type migrate = {
  check_every : int;
      (** planner period: one balancing round every this many queries on
          the system's logical clock *)
  overload : float;
      (** a peer is overloaded when its round load reaches [overload ×]
          the mean round load (must exceed 1.0) *)
  cooldown : int;
      (** hysteresis: rounds both parties of a migration sit out before
          they can migrate again *)
  min_share : int;
      (** minimum round load before a peer can be judged overloaded —
          keeps near-idle systems from thrashing slices around *)
  window : int;
      (** hotness window (in recorded lookups) backing the per-identifier
          scores that pick the hotter half of a split segment *)
}
(** Range migration (Chawachat & Fakcharoenphol): an overloaded peer
    hands a contiguous half of its hottest ring segment to the
    least-loaded live peer. Planned on the logical clock with no
    randomness, so seeded runs are byte-identical. *)

(** The load-balancing policy lattice. Replication multiplies hot state;
    migration moves it; the two compose (migrate the bulk, replicate the
    spikes). *)
type balancing =
  | No_balancing
      (** the paper's protocol exactly; query results are bit-identical to
          builds that predate balancing *)
  | Replicate of replicate
  | Migrate of migrate
  | Replicate_and_migrate of { replicate : replicate; migrate : migrate }
      (** both at once: migrated slices are served by their new holder,
          whose hot buckets replicate onwards as usual. The hotness
          tracker uses [replicate.window]. *)

val default_migrate : migrate
(** A starting point tuned for the bench workloads: check every 256
    queries, 1.5× overload trigger, 2-round cooldown, 16-lookup minimum
    share, 2048-lookup hotness window. *)

type faults = {
  spec : Faults.Plane.spec;  (** drop/crash/partition model *)
  retry : Faults.Retry.policy;
      (** attempts per retried contact; use {!Faults.Retry.none} to inject
          faults without recovery (the ablation baseline) *)
}
(** Deterministic fault injection at every simulated message boundary:
    lookup hops inside Chord and the owner contacts of publish/query. The
    plane's seed derives from the system seed, so runs replay
    bit-identically. *)

type learned = {
  max_error : int;
      (** fit-time bound on the index error of a fresh prediction; the
          correction walk after the predicted-node jump never exceeds it
          by more than 2 (rounding and between-point interpolation).
          Smaller = fewer hops, more segments. *)
  retrain_after : int;
      (** churn events (peer fail/recover notices) per retrain epoch:
          the [retrain_after]-th notice since the last epoch refits the
          model and clears all staleness *)
}
(** Parameters of the learned routing substrate; see {!Learned.Model}. *)

(** Which routing substrate resolves identifier lookups.

    [Chord] (the default) is the paper's protocol — closest-preceding-
    finger routing at ≈ ½·log₂ N hops — and is bit-identical to builds
    that predate substrates. [Learned] routes through a piecewise-linear
    model of the id→peer map (one jump to the predicted owner plus a
    bounded correction walk, O(1) hops); both substrates place every
    identifier on the same peer, so answers and recall are unchanged —
    only path lengths move. *)
type substrate = Chord | Learned of learned

val default_learned : learned
(** [max_error = 8], [retrain_after = 4] — at most 9 correction hops,
    prompt retraining under churn. *)

type t = {
  family : Lsh.Family.kind;
  k : int;  (** hash functions per group *)
  l : int;  (** groups, hence identifiers per range *)
  domain : Rangeset.Range.t;  (** attribute domain being queried *)
  matching : matching;
  padding : padding;
  peer_index : bool;
      (** §5.3: when true, a contacted peer searches {e all} buckets it owns
          rather than only the looked-up identifier's bucket *)
  cache_on_inexact : bool;
      (** store the queried range at the [l] owners when no exact match was
          found — the paper's protocol; off = read-only lookups *)
  use_domain_cache : bool;
      (** precompute RMQ tables over [domain] (identical identifiers, much
          faster); disable to measure raw hashing cost *)
  store_policy : Store.policy;
      (** per-peer cache capacity policy (default [Unbounded], the paper's
          setting; see [ablation-eviction]) *)
  spread_identifiers : bool;
      (** post-process every LSH identifier with the bijective
          {!Lsh.Mix32} finalizer. Collisions — hence match quality — are
          provably unchanged, but placement spreads near-uniformly over the
          ring instead of clustering (see [ablation-spread]). Default
          [false], the paper's raw placement. *)
  balancing : balancing;
      (** load-balancing policy: hot-bucket replication, range migration,
          or both (default [No_balancing]) *)
  faults : faults option;
      (** fault plane over all message boundaries; [None] (the default)
          is the fault-free protocol, bit-identical to builds that predate
          the plane *)
  hinted_handoff : bool;
      (** park publishes whose home peer is dead or unreachable after
          retries as hints at the first live ring successor, serve them
          degraded from there, and replay them home on
          {!System.recover_peer} / {!System.repair}. Default [false] —
          unset runs are bit-identical to builds without hints. *)
  signature_cache : int;
      (** capacity of the per-system LRU memo of range signatures
          ({!Lsh.Sig_cache}); [0] disables it. Signatures are pure
          functions of the range, so the cache never changes results —
          default [1024]. *)
  substrate : substrate;
      (** routing substrate for identifier lookups; [Chord] (the default)
          reproduces the paper's path lengths bit-identically, [Learned]
          trades model state for O(1)-hop routes *)
}

val default : t
(** The paper's §5 setting (approx min-wise, k=20, l=5, domain [0,1000],
    Jaccard matching, no padding, cache-on-inexact, domain cache on). *)

val paper_quality : family:Lsh.Family.kind -> t
(** [default] with the given hash family — the §5.1 comparisons. *)

val validate : t -> unit
(** @raise Error.Error (code [Invalid_config], context naming the field)
    on nonsensical settings (k, l < 1; negative padding; empty domain;
    replication factor, hotness threshold or window < 1; migration
    period, minimum share or window < 1, overload factor <= 1; negative
    signature-cache capacity; learned substrate with
    negative error bound or non-positive retrain period; fault
    probabilities outside [0, 1], malformed partition events, or a
    nonsensical retry policy — the fault-plane checks raise the same
    [Error.Error] directly, naming the [faults.*] / [retry.*] field). *)

(** {1 Builder}

    Pipe-friendly setters so call sites stop constructing the record
    field-by-field: [Config.default |> with_balancing b |> with_faults f].
    Each returns an updated copy; {!validate} still runs at system
    creation. *)

val with_family : Lsh.Family.kind -> t -> t
val with_kl : k:int -> l:int -> t -> t
val with_domain : Rangeset.Range.t -> t -> t
val with_matching : matching -> t -> t
val with_padding : padding -> t -> t
val with_peer_index : bool -> t -> t
val with_cache_on_inexact : bool -> t -> t
val with_domain_cache : bool -> t -> t
val with_store_policy : Store.policy -> t -> t
val with_spread_identifiers : bool -> t -> t
val with_balancing : balancing -> t -> t

val with_faults : faults -> t -> t
val with_hinted_handoff : bool -> t -> t
val with_signature_cache : int -> t -> t
val with_substrate : substrate -> t -> t

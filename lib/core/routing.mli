(** The pluggable routing substrate behind {!System} and {!Engine}.

    The paper's group scheme is substrate-agnostic: it needs an overlay
    that can route an identifier to its owner and tell who owns a ring
    position — nothing Chord-specific. This module is that seam. A
    substrate is a first-class value selected by {!Config.t.substrate}:

    - [Chord] delegates every call verbatim to {!Chord.Ring}, so default
      systems consume the same PRNG stream, bump the same counters and
      emit the same spans as builds that predate substrates —
      bit-identical, enforced by [check_bench --baseline].
    - [Learned] routes through a {!Learned.Model}: one overlay hop to
      the predicted owner, then a bounded neighbour-pointer correction
      walk. Stale predictions (unretrained churn in the covering
      segment) distrust the walk and fall back to plain Chord routing
      from the predicted node, so lookups never fail — they just pay
      log-hops until the next retrain epoch.

    Both substrates resolve owners with the same first-at-or-after rule,
    so placement, answers and recall are substrate-independent; only hop
    counts move. Owner resolution for {!System} goes through {!owner}
    exclusively — one call site rule, no per-path drift. *)

type t

val create : substrate:Config.substrate -> Chord.Ring.t -> t
(** Wraps the ring in the selected substrate. Fitting the learned model
    is deterministic and draws no randomness, so substrate choice never
    perturbs the creating system's PRNG streams. *)

val ring : t -> Chord.Ring.t
(** The underlying ring (shared by every substrate: replica placement,
    migration predecessors and fault legs stay substrate-independent). *)

val substrate_name : t -> string
(** ["chord"] or ["learned"], for traces and bench tables. *)

val owner : t -> Chord.Id.t -> Chord.Id.t
(** The ring position owning a key — no messages, no hops; the one owner
    call {!System} uses everywhere (placement, migration redirects). *)

val lookup : t -> from:Chord.Id.t -> key:Chord.Id.t -> Chord.Id.t * int
(** Routes from node [from] to the owner of [key]; returns the owner
    position and overlay hops (0 when [from] owns it). Learned lookups
    run under a ["learned.lookup"] span carrying a
    [learned.correction_hops] attribute. *)

(** Per-batch routing state: Chord's address cache, nothing for the
    learned substrate (its predictions are already O(1) — there is no
    finger prefix to share). *)
type cache

val new_cache : t -> cache

val lookup_via : t -> cache -> from:Chord.Id.t -> key:Chord.Id.t -> Chord.Id.t * int
(** {!lookup} through the batch cache: same owner, hops never exceed
    {!lookup}'s for the same key. *)

val note_churn : t -> position:Chord.Id.t -> unit
(** A membership event (fail/recover) at a ring position. Chord's static
    fingers need nothing; the learned model marks the covering segment
    stale and retrains on the configured epoch boundary. *)

val learned_model : t -> Learned.Model.t option
(** The learned state, for bench staleness reporting ([None] on Chord).
    Lookup tallies are the [learned.lookups], [learned.stale_lookups]
    counters and the [learned.correction_hops] histogram. *)

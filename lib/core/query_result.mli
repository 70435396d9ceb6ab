(** The result record of the unified query API.

    One query — batched or not — produces exactly one [t]: the match (if
    any), its quality scores, the lookup cost, and the degradation status
    under faults. {!System.query}, {!System.query_batch} and the engine's
    provenance all speak this type. *)

type lookup_stats = {
  identifiers : Chord.Id.t list;  (** the [l] identifiers contacted *)
  hops : int list;  (** overlay hops per identifier lookup *)
  messages : int;
      (** overlay messages this query paid for: each lookup costs its hops
          in forwarded requests plus one direct reply from the owner. In a
          batch, work shared with earlier queries of the same batch
          (memoized signatures, deduped identifiers, coalesced owner
          contacts) is charged to the query that first caused it, so batch
          totals are the sum of per-query [messages]. *)
}

type t = {
  query : Rangeset.Range.t;  (** the range the user asked for *)
  effective : Rangeset.Range.t;  (** after padding *)
  matched : Matching.scored option;
      (** best reply across the [l] owners, scored against [effective] *)
  similarity : float;
      (** Jaccard between [query] and the match; 0 when unmatched (Fig. 6–7) *)
  recall : float;
      (** fraction of [query] covered by the match; 0 when unmatched
          (Fig. 8–10) *)
  stats : lookup_stats;
  cached : bool;  (** whether this query's range was stored at the owners *)
  responders : int;
      (** owner contacts that answered within the retry policy's
          attempts; equals the identifier count on a fault-free run *)
  degraded : bool;
      (** true when at least one owner went unanswered (crashed peer or
          contact out of retry attempts) — the result is best-effort over the
          responders rather than an error *)
}

val messages : t -> int
(** [r.stats.messages]. *)

val matched_range : t -> Rangeset.Range.t option
(** The range of the best match, when any owner had one. *)

(** Best-match selection inside buckets and across replies.

    Hashing must be built on Jaccard similarity (containment admits no LSH
    family — §3.2), but once candidate partitions are in hand either measure
    can rank them. Figure 9 compares the two. *)

type scored = {
  entry : Store.entry;
  score : float;  (** value of the configured measure against the query *)
  jaccard : float;
  recall : float;  (** fraction of the query the candidate covers *)
}

val score :
  Config.matching -> query:Rangeset.Range.t -> Store.entry -> scored

val better : scored -> scored -> scored
(** The preferred of two scored candidates: higher score, then smaller
    range (less data to ship), then the first argument. Used both inside
    buckets and across the [l] owners' replies, so the protocol's choice
    equals a global best over all candidates. *)

type pick
(** The running best of one {!select} pass. *)

val select :
  Config.matching ->
  query:Rangeset.Range.t ->
  ((pick -> Store.entry -> pick) -> pick -> pick) ->
  scored option
(** [select matching ~query fold] is the best candidate that [fold step
    init] feeds to [step]: highest score; ties broken toward the smaller
    range (less data to ship), then toward the candidate fed first —
    {!better}'s order. [None] when nothing was fed, and entries scoring 0
    (disjoint from the query) are never returned as matches. The pass
    allocates nothing per candidate; only the winner is scored into a
    record, by {!score}. The serve path passes
    [Store.fold_bucket store ~identifier]. *)

val best :
  Config.matching -> query:Rangeset.Range.t -> Store.entry list -> scored option
(** {!select} over a list, first element fed first. *)

val is_exact : query:Rangeset.Range.t -> scored -> bool
(** Whether the matched range equals the query exactly — the condition under
    which the paper skips re-caching. *)

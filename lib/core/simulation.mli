(** The match-quality experiment harness (§5.1–§5.2, Figures 6–10).

    Protocol of the paper: start with an empty system, stream query ranges
    through it (each inexactly-answered query is cached on its way out),
    drop the first 20 % as warm-up, and aggregate the similarity and recall
    of the matches found for the rest. *)

type outcome = {
  index : int;  (** position in the query stream, 0-based *)
  result : Query_result.t;
}

type run = {
  config : Config.t;
  n_queries : int;
  warmup : int;  (** outcomes with [index < warmup] are excluded below *)
  outcomes : outcome list;  (** every query, including warm-up, in order *)
}

val run :
  ?config:Config.t ->
  ?n_peers:int ->
  ?n_queries:int ->
  ?warmup_fraction:float ->
  ?workload:Workload.Query_workload.shape ->
  seed:int64 ->
  unit ->
  run
(** Defaults reproduce the paper: 100 peers, 10,000 [Uniform_pairs] queries
    over the config's domain, 20 % warm-up. The seed drives the workload,
    the hash functions and the choice of querying peer. *)

val measured : run -> outcome list
(** Post-warm-up outcomes. *)

val similarities : run -> float list
(** Match similarity (Jaccard vs the query; 0 for no match) per measured
    query — the Figure 6/7 sample. *)

val recalls : run -> float list
(** Recall per measured query — the Figure 8–10 sample. *)

val similarity_histogram : ?bins:int -> run -> Stats.Histogram.t
(** Histogram over [\[0, 1\]] (default 10 bins, as in the paper's plots). *)

val recall_cdf : run -> Stats.Cdf.t

val mean_hops : run -> float
val mean_messages : run -> float
val fraction_complete : run -> float
(** Fraction of measured queries answered completely (recall = 1). *)

val fraction_unmatched : run -> float

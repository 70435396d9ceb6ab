(** Multi-attribute selections — the paper's first "future work" item (§6).

    The paper's system handles one attribute per selection. This extension
    locates partitions for conjunctions like [30 <= age <= 50 AND
    100 <= weight <= 150] by running the single-attribute protocol once per
    conjunct over per-attribute systems sharing one ring, then combining
    the replies: the combined recall of a conjunctive query is bounded by
    its weakest conjunct (a tuple must satisfy every predicate, and a miss
    on any attribute loses the tuple), so the combined estimate is the
    minimum of the per-attribute recalls. *)

type conjunct = { attribute : string; range : Rangeset.Range.t }

type t

val create :
  ?config:Config.t ->
  seed:int64 ->
  n_peers:int ->
  attributes:(string * Rangeset.Range.t) list ->
  unit ->
  t
(** One logical system per attribute (name × domain), all sharing the same
    peer population and ring. The config's [domain] field is overridden per
    attribute. @raise Invalid_argument on duplicate attribute names or an
    empty list. *)

val attributes : t -> string list

val system_for : t -> string -> System.t
(** The underlying single-attribute system. @raise Not_found. *)

type result = {
  conjuncts : (conjunct * Query_result.t) list;
  combined_recall : float;
      (** min over conjunct recalls — 0 if any conjunct found no match *)
  total_messages : int;
}

val query : t -> from_name:string -> conjunct list -> result
(** Runs the protocol once per conjunct from the named peer.
    @raise Not_found on unknown attributes;
    @raise Error.Error ([Unknown_peer]) on unknown peer names;
    @raise Invalid_argument on an empty conjunct list. *)

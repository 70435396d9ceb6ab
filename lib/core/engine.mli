(** End-to-end SQL-style query answering over the P2P system (§2).

    The engine owns: the source relations (authoritative copies, as the
    paper's sources are peers known to everyone), one range-selection
    {!System} per (relation, attribute) pair declared rangeable, and an
    exact-match DHT for string-equality selections (the classic put/get
    case the paper builds on). Executing a query follows the paper's
    Figure 1/2 flow:

    + push selections to the leaves ({!Relational.Planner});
    + answer each leaf from a cached partition when the protocol finds one
      (approximately, with the configured matching policy), else fetch from
      the source and publish the partition for future queries;
    + compute the joins and projections locally with
      {!Relational.Executor}.

    Each (relation, attribute) pair gets its own logical DHT so that every
    attribute can carry its own domain; the paper's single shared ring is
    recovered by giving every system the same peer population. *)

type t

val create :
  ?config:Config.t ->
  seed:int64 ->
  n_peers:int ->
  sources:Relational.Relation.t list ->
  rangeable:((string * string) * Rangeset.Range.t) list ->
  unit ->
  t
(** [rangeable] lists the ((relation, attribute), domain) pairs that can be
    answered approximately from cached range partitions. The config's
    [domain] is overridden per attribute.
    @raise Invalid_argument on duplicate relation names or rangeable pairs,
    or if a rangeable pair references a missing relation/attribute. *)

val source : t -> string -> Relational.Relation.t
(** The authoritative relation. @raise Not_found. *)

val system_for : t -> relation:string -> attribute:string -> System.t
(** The range-selection system of a rangeable pair. @raise Not_found. *)

val fail_peer : t -> string -> unit
(** Fails the named peer in every underlying range system (the engine's
    systems share one peer population). Cached partitions it held are only
    reachable afterwards where replication placed copies. Reversible with
    {!recover_peer}. @raise Error.Error ([Unknown_peer]) on unknown
    names. *)

val recover_peer : t -> string -> unit
(** Brings a {!fail_peer}ed peer back in every underlying range system,
    serving whatever it held when it failed. @raise Error.Error
    ([Unknown_peer]) on unknown names. *)

(** How one leaf of the plan was answered. *)
type provenance =
  | From_cache of Query_result.t
      (** answered from a cached partition located by the protocol *)
  | From_source of { published : bool }
      (** fetched from the base relation; [published] = the partition was
          then cached for future queries *)
  | From_exact_dht of { hit : bool }
      (** string-equality selection over the exact-match DHT *)
  | Full_relation
      (** leaf had no usable selection; the whole source was read *)

type leaf_report = {
  relation : string;
  predicates : Relational.Predicate.t list;
  provenance : provenance;
  tuples_fetched : int;
  recall_estimate : float;
      (** 1.0 for exact answers; the located partition's coverage of the
          queried range for approximate ones *)
}

type answer = {
  result : Relational.Relation.t;
  leaves : leaf_report list;
  messages : int;  (** overlay messages spent locating partitions *)
  source_fetches : int;  (** leaves that had to touch a source relation *)
  recall_estimate : float;  (** min over leaf recall estimates *)
}

val execute :
  t -> from_name:string -> ?allow_source:bool -> Relational.Query.t -> answer
(** Runs the full flow. With [allow_source:false] (default [true]) leaves
    that find no cached partition are answered with what the system has —
    possibly nothing — mimicking a user who accepts fast approximate
    answers (§5.2). @raise Not_found on unknown relations; @raise
    Error.Error ([Unknown_peer]) on unknown peer names. *)

val execute_sql :
  t -> from_name:string -> ?allow_source:bool -> string -> answer
(** Parses the SQL text against the engine's source schemas
    ({!Relational.Sql}) and runs {!execute} — peers submit queries "in the
    form of an SQL statement" (§2). Tables join in FROM order.
    @raise Relational.Sql.Error on front-end failures; @raise Error.Error
    ([Unknown_peer]) on unknown peer names. *)

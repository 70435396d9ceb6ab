(** Replica placement over a Chord substrate.

    A hot bucket is replicated from its owner onto the owner's first [r]
    ring successors — the same peers Chord's successor lists already track
    for fault tolerance, so a replica is exactly where routing will look
    when the owner disappears. This module only {e chooses} the replica
    nodes; copying entries and serving from them is the caller's job
    ({!P2prange.System}). *)

val replica_set :
  Chord.Ring.t ->
  ?alive:(Chord.Id.t -> bool) ->
  identifier:Chord.Id.t ->
  r:int ->
  unit ->
  Chord.Id.t list
(** [replica_set ring ~identifier ~r ()] is the owner of [identifier]
    followed by up to [r] replica nodes: the first [r] nodes accepted by
    [alive] (default: everyone) among the owner's first
    [min ((r + 1) * 8) (size - 1)] successors, walked clockwise one
    {!Chord.Ring.successor} at a time, nearest first. The owner heads the
    list even when dead (the caller decides how to treat it), so the list
    is never empty. @raise Invalid_argument when [r < 1]. *)

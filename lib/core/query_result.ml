type lookup_stats = {
  identifiers : Chord.Id.t list;
  hops : int list;
  messages : int;
}

type t = {
  query : Rangeset.Range.t;
  effective : Rangeset.Range.t;
  matched : Matching.scored option;
  similarity : float;
  recall : float;
  stats : lookup_stats;
  cached : bool;
  responders : int;
  degraded : bool;
}

let messages r = r.stats.messages
let matched_range r =
  Option.map (fun m -> m.Matching.entry.Store.range) r.matched

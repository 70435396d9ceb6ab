type learned_state = { lring : Chord.Ring.t; model : Learned.Model.t }

type t = Chord_ring of Chord.Ring.t | Learned_index of learned_state

let create ~substrate ring =
  match substrate with
  | Config.Chord -> Chord_ring ring
  | Config.Learned { Config.max_error; retrain_after } ->
    Learned_index
      {
        lring = ring;
        model =
          Learned.Model.fit ~keys:(Chord.Ring.node_ids ring) ~max_error
            ~retrain_after;
      }

let ring = function Chord_ring r -> r | Learned_index { lring; _ } -> lring
let substrate_name = function Chord_ring _ -> "chord" | Learned_index _ -> "learned"

let owner t key =
  match t with
  | Chord_ring r -> Chord.Ring.owner r key
  | Learned_index { model; _ } -> Learned.Model.owner_position model ~key

let m_lookups = Obs.Metrics.counter "learned.lookups"
let m_messages = Obs.Metrics.counter "learned.messages"
let m_stale = Obs.Metrics.counter "learned.stale_lookups"
let m_retrains = Obs.Metrics.counter "learned.retrains"
let h_hops = Obs.Metrics.histogram "learned.hops"
let h_corrections = Obs.Metrics.histogram "learned.correction_hops"

(* The fraction of segments stale after each churn event: with the stale
   lookups above, the staleness/retrain story of the learned substrate. *)
let g_staleness = Obs.Metrics.gauge "learned.staleness"

(* One learned route: jump to the node the model predicts (1 hop), then
   correct the residual. A fresh segment bounds the residual by the fit
   error, and neighbour pointers are exact both ways, so the correction
   is the circular index distance. A stale segment's prediction is
   distrusted: the predicted node re-routes with its (always-correct)
   Chord fingers — the never-fails fallback, at log cost. *)
let learned_lookup ls ~from ~key =
  let model = ls.model in
  Obs.Trace.with_span "learned.lookup" (fun () ->
      Obs.Trace.set_int "from" from;
      Obs.Trace.set_int "key" key;
      let owner_idx, predicted_idx, stale = Learned.Model.predict model ~key in
      let owner = Learned.Model.position_at model owner_idx in
      (* [stale] only matters when a route is actually taken: the local
         0-hop case never consults the prediction. *)
      let stale = stale && owner <> from in
      let corrections =
        if owner = from || predicted_idx = owner_idx then 0
        else if stale then
          snd
            (Chord.Ring.lookup ls.lring
               ~from:(Learned.Model.position_at model predicted_idx)
               ~key)
        else begin
          let n = Learned.Model.size model in
          let d = abs (owner_idx - predicted_idx) in
          Stdlib.min d (n - d)
        end
      in
      let hops = if owner = from then 0 else 1 + corrections in
      Obs.Metrics.incr m_lookups;
      Obs.Metrics.add m_messages (hops + 1);
      if stale then Obs.Metrics.incr m_stale;
      Obs.Metrics.observe_int h_hops hops;
      Obs.Metrics.observe_int h_corrections corrections;
      Obs.Trace.set_int "owner" owner;
      Obs.Trace.set_int "hops" hops;
      Obs.Trace.set_int "learned.correction_hops" corrections;
      Obs.Trace.set_bool "stale" stale;
      (owner, hops))

let lookup t ~from ~key =
  match t with
  | Chord_ring r -> Chord.Ring.lookup r ~from ~key
  | Learned_index ls -> learned_lookup ls ~from ~key

type cache = Chord_cache of Chord.Ring.Route_cache.t | No_cache

let new_cache = function
  | Chord_ring _ -> Chord_cache (Chord.Ring.Route_cache.create ())
  | Learned_index _ -> No_cache

let lookup_via t cache ~from ~key =
  match (t, cache) with
  | Chord_ring r, Chord_cache c -> Chord.Ring.lookup_via r c ~from ~key
  | (Chord_ring _ | Learned_index _), (Chord_cache _ | No_cache) ->
    lookup t ~from ~key

let note_churn t ~position =
  match t with
  | Chord_ring _ -> ()
  | Learned_index { model; _ } ->
    let before = Learned.Model.epoch model in
    Learned.Model.note_churn model ~position;
    if Learned.Model.epoch model > before then Obs.Metrics.incr m_retrains;
    if Obs.Metrics.recording () then
      Obs.Metrics.set_gauge g_staleness
        (float_of_int (Learned.Model.stale_segment_count model)
        /. float_of_int (max 1 (Learned.Model.segment_count model)))

let learned_model = function
  | Chord_ring _ -> None
  | Learned_index { model; _ } -> Some model

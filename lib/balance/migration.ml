type spec = {
  check_every : int;
  overload : float;
  cooldown : int;
  min_share : int;
}

let validate_spec { check_every; overload; cooldown; min_share } =
  if check_every < 1 then invalid_arg "Migration: check_every must be >= 1";
  if not (Float.is_finite overload) || overload <= 1.0 then
    invalid_arg "Migration: overload factor must exceed 1.0";
  if cooldown < 0 then invalid_arg "Migration: cooldown must be >= 0";
  if min_share < 1 then invalid_arg "Migration: min_share must be >= 1"

type seg = { lo : Chord.Id.t; hi : Chord.Id.t; holder : int }

(* Planned hand-offs; the applying layer counts the executed moves per
   target peer. *)
let m_planned_moves = Obs.Metrics.counter "balance.planned_moves"

(* Per split ring position: the segments its (predecessor, position]
   interval has been split into. A position is its native peer's id. The
   list always partitions the interval; every migration splits one
   segment in two, so slices stay contiguous and disjoint — and a slice
   is just a segment whose holder is not the position, which makes
   received slices re-splittable exactly like native remainders. *)

type move = {
  position : Chord.Id.t;
  source : int;
  target : int;
  lo : Chord.Id.t;
  hi : Chord.Id.t;
}

type t = {
  spec : spec;
  mutable clock : int; (* queries ticked so far *)
  mutable rounds : int; (* planner rounds run so far *)
  mutable migrations : int;
  (* Serves this round by the peer that answered. *)
  round_peer : (int, int) Hashtbl.t;
  (* Serves this round by segment, keyed (position, seg.lo); untouched
     positions use the sentinel key (position, position) for their whole
     interval. Segment lists only change inside [plan], which also resets
     this table, so keys are stable within a round. *)
  round_seg : (Chord.Id.t * Chord.Id.t, int) Hashtbl.t;
  states : (Chord.Id.t, seg list) Hashtbl.t;
  (* peer -> round index through which it sits out (hysteresis). *)
  cooling : (int, int) Hashtbl.t;
}

let create spec =
  validate_spec spec;
  {
    spec;
    clock = 0;
    rounds = 0;
    migrations = 0;
    round_peer = Hashtbl.create 64;
    round_seg = Hashtbl.create 64;
    states = Hashtbl.create 16;
    cooling = Hashtbl.create 16;
  }

let migrations t = t.migrations
let rounds t = t.rounds

let slice_count t =
  Hashtbl.fold
    (fun position segs acc ->
      acc + List.length (List.filter (fun s -> s.holder <> position) segs))
    t.states 0

let split_positions t =
  Hashtbl.fold (fun position _ acc -> position :: acc) t.states []
  |> List.sort Int.compare

let segments t ~position =
  match Hashtbl.find_opt t.states position with
  | None -> []
  | Some segs -> List.map (fun (s : seg) -> (s.lo, s.hi, s.holder)) segs

let seg_of segs identifier =
  List.find_opt
    (fun (s : seg) -> Chord.Id.in_interval_oc identifier ~lo:s.lo ~hi:s.hi)
    segs

let holder t ~position ~identifier =
  match Hashtbl.find_opt t.states position with
  | None -> None
  | Some segs -> (
    match seg_of segs identifier with
    | Some s when s.holder <> position -> Some s.holder
    | Some _ | None -> None)

let count table key = Option.value (Hashtbl.find_opt table key) ~default:0

let bump table key = Hashtbl.replace table key (1 + count table key)

let note_serve t ~position ~identifier ~peer =
  bump t.round_peer peer;
  let seg_key =
    match Hashtbl.find_opt t.states position with
    | None -> (position, position)
    | Some segs -> (
      match seg_of segs identifier with
      | Some s -> (position, s.lo)
      | None -> (position, position))
  in
  bump t.round_seg seg_key

let cooling t peer =
  match Hashtbl.find_opt t.cooling peer with
  | Some until -> until >= t.rounds
  | None -> false

(* One balancing round. Deterministic throughout: peers are scanned in
   the caller's (creation) order, so ties break identically run to run,
   and nothing draws randomness. At most one migration per round. *)
let plan t ~peers ~responsive ~predecessor ~scores =
  t.rounds <- t.rounds + 1;
  let load p = count t.round_peer p in
  let total = List.fold_left (fun acc p -> acc + load p) 0 peers in
  let decision =
    if total = 0 || peers = [] then None
    else begin
      let mean = float_of_int total /. float_of_int (List.length peers) in
      let eligible p = responsive p && not (cooling t p) in
      (* Overloaded candidates, hottest first (stable, so ties keep the
         caller's creation order). A candidate that cannot shed — none of
         its segments served this round, or all too short to split — is
         skipped rather than starving the round. *)
      let candidates =
        peers
        |> List.filter (fun p ->
               eligible p
               && load p >= t.spec.min_share
               && float_of_int (load p) >= t.spec.overload *. mean)
        |> List.stable_sort (fun a b -> Int.compare (load b) (load a))
      in
      let target_for source =
        List.fold_left
          (fun best p ->
            if p <> source && eligible p then
              match best with
              | Some b when load b <= load p -> best
              | Some _ | None -> Some p
            else best)
          None peers
      in
      let attempt source =
        (* The busiest splittable segment the source holds this round —
           native remainders and received slices alike. Received slices
           live at positions the source does not own, so split positions
           are scanned globally (sorted, for deterministic tie-breaks). *)
        let splittable lo hi = Chord.Id.distance_cw ~from:lo ~to_:hi >= 2 in
        let consider best ~position ~key ~lo ~hi =
          let heat = count t.round_seg (position, key) in
          if heat = 0 || not (splittable lo hi) then best
          else
            match best with
            | Some (_, _, _, bh) when bh >= heat -> best
            | Some _ | None -> Some (position, lo, hi, heat)
        in
        (* The source's own position while untouched (sentinel key: the
           whole interval)… *)
        let best =
          if Hashtbl.mem t.states source then None
          else
            consider None ~position:source ~key:source
              ~lo:(predecessor source) ~hi:source
        in
        (* …then every segment the source holds at any split position. *)
        let best =
          Hashtbl.fold
            (fun position segs acc -> (position, segs) :: acc)
            t.states []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.fold_left
               (fun best (position, segs) ->
                 List.fold_left
                   (fun best (s : seg) ->
                     if s.holder = source then
                       consider best ~position ~key:s.lo ~lo:s.lo ~hi:s.hi
                     else best)
                   best segs)
               best
        in
        match best with
        | None -> None
        | Some (position, a, b, _) -> (
          match target_for source with
          | None -> None
          | Some target ->
            let len = Chord.Id.distance_cw ~from:a ~to_:b in
            let mid = (a + (len / 2)) mod Chord.Id.modulus in
            (* (a, mid] and (mid, b] partition (a, b]; hand off the half
               with the larger windowed score (ties toward the lower
               half), keeping the other with the source. *)
            let sc = scores () in
            let half_score ~lo ~hi =
              List.fold_left
                (fun acc (id, s) ->
                  if Chord.Id.in_interval_oc id ~lo ~hi then acc + s else acc)
                0 sc
            in
            let s_low = half_score ~lo:a ~hi:mid in
            let s_high = half_score ~lo:mid ~hi:b in
            let lo, hi, keep_lo, keep_hi =
              if s_low >= s_high then (a, mid, mid, b) else (mid, b, a, mid)
            in
            let segs =
              match Hashtbl.find_opt t.states position with
              | Some segs -> segs
              | None -> [ { lo = a; hi = b; holder = source } ]
            in
            Hashtbl.replace t.states position
              (List.concat_map
                 (fun (s : seg) ->
                   if s.lo = a && s.hi = b then
                     [
                       { lo; hi; holder = target };
                       { lo = keep_lo; hi = keep_hi; holder = s.holder };
                     ]
                   else [ s ])
                 segs);
            let until = t.rounds + t.spec.cooldown in
            Hashtbl.replace t.cooling source until;
            Hashtbl.replace t.cooling target until;
            t.migrations <- t.migrations + 1;
            Obs.Metrics.incr m_planned_moves;
            Some { position; source; target; lo; hi })
      in
      List.find_map attempt candidates
    end
  in
  Hashtbl.reset t.round_seg;
  Hashtbl.reset t.round_peer;
  decision

let tick t ~peers ~responsive ~predecessor ~scores =
  t.clock <- t.clock + 1;
  if t.clock mod t.spec.check_every = 0 then
    plan t ~peers ~responsive ~predecessor ~scores
  else None

(* Churn resilience of the range-selection system.

   The paper assumes a converged overlay; this example shows what peer
   failures cost the *data* on top of it, and what the system does about
   them. Routing stays on the converged ring throughout: a failed peer
   keeps its ring segment, and its buckets are served by whoever else
   holds them.

   Act one: two identical systems — hot-bucket replication off and on —
   serve the same skewed query stream, lose the same peers, and report
   the recall each retains.

   Act two turns on the deterministic fault plane: 15% of messages drop,
   and one query stream runs once without retries, then with the default
   retry policy. Then, with hinted handoff on, one peer crashes and
   recovers, and anti-entropy repair brings the system back to a clean
   invariant audit.

   Run with:  dune exec examples/churn_resilience.exe
   Optionally `-- --series FILE` records the metric timeline (fault
   sends/drops/retries, crash and repair marks) for timeline.exe. *)

let series_path =
  match Array.to_list Sys.argv with
  | _ :: "--series" :: path :: _ -> Some path
  | _ -> None

let () = if series_path <> None then Obs.Series.enable ()

let () =
  (* ---- act one: recall through failures, with and without replication.

     Same seed, same peers, same Zipf-skewed queries; the only difference
     is the [replication] knob. One identifier per range (l = 1) so a
     failed owner really is the only native holder of its buckets. *)
  let module System = P2prange.System in
  let module Query_result = P2prange.Query_result in
  let module Config = P2prange.Config in
  let base =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_spread_identifiers true
    |> Config.with_kl ~k:Config.default.Config.k ~l:1
  in
  let replicated =
    base
    |> Config.with_balancing
         (Config.Replicate
            { r = 2; hot = Balance.Tracker.Absolute 8; window = 1024 })
  in
  let n_peers = 48 in
  let systems =
    List.map
      (fun (label, config) ->
        (label, System.create ~config ~seed:777L ~n_peers ()))
      [ ("replication off", base); ("replication on", replicated) ]
  in
  let run sys ~stream_seed ~n =
    let rng = Prng.Splitmix.create stream_seed in
    let stream =
      Workload.Query_workload.create
        (Workload.Query_workload.Zipf_hotspots
           { hotspots = 8; spread = 8; s = 1.0 })
        ~domain:base.Config.domain ~seed:stream_seed
    in
    let live =
      Array.of_list (List.filter (System.alive sys) (System.peers sys))
    in
    let total = ref 0.0 in
    for _ = 1 to n do
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      let r = System.query sys ~from (Workload.Query_workload.next stream) in
      total := !total +. r.Query_result.recall
    done;
    !total /. float_of_int n
  in
  Format.printf "@.--- recall through failures (same peers, same queries) ---@.";
  let warm =
    List.map (fun (label, sys) -> (label, sys, run sys ~stream_seed:777L ~n:3000))
      systems
  in
  (* The same third of the peers fails in both systems: the most loaded
     ones of the unreplicated run, i.e. the hot-bucket owners. *)
  let victims =
    let _, off, _ = List.hd warm in
    System.peers off
    |> List.map (fun p ->
           ( Balance.Tracker.peer_load (System.tracker off) (P2prange.Peer.id p),
             P2prange.Peer.name p ))
    |> List.sort (fun (la, na) (lb, nb) ->
           if la <> lb then Int.compare lb la else String.compare na nb)
    |> List.filteri (fun i _ -> i < n_peers / 3)
    |> List.map snd
  in
  List.iter
    (fun (_, sys, _) ->
      List.iter (fun name -> System.fail_peer sys (System.peer_by_name sys name)) victims)
    warm;
  List.iter
    (fun (label, sys, before) ->
      let after = run sys ~stream_seed:778L ~n:1000 in
      Format.printf
        "%-16s recall %.3f -> %.3f after %d failures  (replicated buckets: %d)@."
        label before after (List.length victims)
        (System.replicated_buckets sys))
    warm;

  (* ---- act two: the fault plane — drops, retries, a crash and repair.

     Fresh 48-peer systems with the paper's l = 5 identifiers per range
     (spread over the ring, so one peer owns a share of them, not all),
     under a seeded fault plane that drops 15% of messages. The same
     query stream runs once with single-attempt contacts, then with the
     default retry policy. *)
  let module Plane = Faults.Plane in
  Format.printf "@.--- act two: deterministic fault injection ---@.";
  let with_plane ?(hinted = false) ~drop retry =
    Config.default
    |> Config.with_spread_identifiers true
    |> Config.with_faults
         { Config.spec = { Plane.no_faults with Plane.drop }; retry }
    |> Config.with_hinted_handoff hinted
  in
  let serve sys ~label ~stream_seed ~n =
    let rng = Prng.Splitmix.create stream_seed in
    let stream =
      Workload.Query_workload.create
        (Workload.Query_workload.Zipf_hotspots
           { hotspots = 8; spread = 64; s = 1.0 })
        ~domain:Config.default.Config.domain ~seed:stream_seed
    in
    let from =
      Array.of_list (List.filter (System.responsive sys) (System.peers sys))
    in
    let responders = ref 0 and degraded = ref 0 and recall = ref 0.0 in
    for _ = 1 to n do
      let r =
        System.query sys
          ~from:from.(Prng.Splitmix.int rng (Array.length from))
          (Workload.Query_workload.next stream)
      in
      responders := !responders + r.Query_result.responders;
      if r.Query_result.degraded then incr degraded;
      recall := !recall +. r.Query_result.recall
    done;
    let per x = x /. float_of_int n in
    Format.printf
      "%-28s responders/query %.2f  degraded %.3f  mean recall %.3f@." label
      (per (float_of_int !responders))
      (per (float_of_int !degraded))
      (per !recall)
  in
  List.iter
    (fun (label, retry) ->
      let sys =
        System.create ~config:(with_plane ~drop:0.15 retry) ~seed:778L
          ~n_peers ()
      in
      serve sys ~label ~stream_seed:779L ~n:2000)
    [
      ("15% drop, no retries", Faults.Retry.none);
      ("15% drop, retry/backoff", Faults.Retry.default);
    ];
  (* A crash under a quiet plane, with hinted handoff: publishes whose
     owner is the silent peer park as hints at its successor, and repair
     replays them home once it answers again. *)
  let sys =
    System.create
      ~config:(with_plane ~hinted:true ~drop:0.0 Faults.Retry.default)
      ~seed:778L ~n_peers ()
  in
  serve sys ~label:"quiet plane, warm-up" ~stream_seed:779L ~n:2000;
  let plane = Option.get (System.fault_plane sys) in
  let victim =
    let load p =
      Balance.Tracker.peer_load (System.tracker sys) (P2prange.Peer.id p)
    in
    List.fold_left
      (fun best p -> if load p > load best then p else best)
      (List.hd (System.peers sys)) (System.peers sys)
  in
  Plane.crash plane (P2prange.Peer.id victim);
  Format.printf "@.crashed %s, the most loaded peer (alive, not answering)@."
    (P2prange.Peer.name victim);
  serve sys ~label:"while it is down" ~stream_seed:780L ~n:1000;
  let publishes =
    Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
      ~domain:Config.default.Config.domain ~seed:781L
  in
  let from = List.find (System.responsive sys) (System.peers sys) in
  for _ = 1 to 200 do
    ignore (System.publish sys ~from (Workload.Query_workload.next publishes))
  done;
  Format.printf "200 publishes while it is down: %d identifiers parked as hints@."
    (System.parked_hints sys);
  Plane.recover plane (P2prange.Peer.id victim);
  System.repair sys;
  let violations = System.check_invariants sys in
  Format.printf "recovered and repaired: %d hints parked, %d invariant violations@."
    (System.parked_hints sys) (List.length violations);
  (* The repaired system must audit clean; CI runs this example. *)
  if violations <> [] then begin
    List.iter prerr_endline violations;
    exit 1
  end;
  serve sys ~label:"after recovery" ~stream_seed:782L ~n:1000;
  match series_path with
  | None -> ()
  | Some path ->
    Obs.Series.write path;
    Format.printf "series written to %s@." path

(* System consistency doctor: builds a deterministic system, seeds it with
   published ranges, optionally pushes it through failures (and the full
   partition -> heal -> crash -> recover drill with anti-entropy repair in
   between), then audits [System.check_invariants] and prints one line per
   violation. Exit status 0 means every audit came back clean; 1 means at
   least one violation (or an unknown --fail peer name).

   `doctor` — audit a freshly built, seeded system.
   `doctor --fail peer-3,peer-7` — audit with peers failed (no repair), so
   violations show exactly which buckets their failure strands; add
   --hinted/--replicate to watch handoff and replication shrink that set
   (publishes after the failure park at successors, hot buckets survive
   on replicas — only pre-failure cold data stays stranded).
   `doctor --drill` — partition an island, heal + repair, crash peers,
   recover + repair, auditing at every boundary.
   `doctor --json` — emit the audit report as one machine-readable JSON
   document (schema p2prange.doctor v1) built from the structured
   [System.check_invariants_detailed] findings: per audit boundary, each
   violation's stable error code, message, and context pairs. CI parses
   this instead of scraping the text lines. *)

module Range = Rangeset.Range
module Config = P2prange.Config
module System = P2prange.System
module Peer = P2prange.Peer

open Cmdliner

let seed_t =
  let doc = "PRNG seed; the audit is deterministic given the seed." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let peers_t =
  let doc = "Number of peers." in
  Arg.(value & opt int 64 & info [ "peers" ] ~docv:"N" ~doc)

let publishes_t =
  let doc =
    "Ranges published before the audit, so the data invariants have stored \
     buckets to check."
  in
  Arg.(value & opt int 500 & info [ "publishes" ] ~docv:"N" ~doc)

let replicate_t =
  let doc = "Replicate hot buckets (r=2) onto ring successors." in
  Arg.(value & flag & info [ "replicate" ] ~doc)

let hinted_t =
  let doc =
    "Enable hinted handoff: publishes whose home peer is unreachable park at \
     the first live successor and replay on repair."
  in
  Arg.(value & flag & info [ "hinted" ] ~doc)

let fail_t =
  let doc =
    "Comma-separated peer names to fail_peer before the audit (e.g. \
     peer-3,peer-7). No repair is run: the audit shows what their failure \
     strands."
  in
  Arg.(value & opt (list string) [] & info [ "fail" ] ~docv:"NAMES" ~doc)

let drill_t =
  let doc =
    "Run the chaos drill: partition an 8-peer island, heal and repair, crash \
     6 peers, recover and repair — auditing invariants at every boundary. \
     Implies --hinted."
  in
  Arg.(value & flag & info [ "drill" ] ~doc)

let json_t =
  let doc =
    "Emit the report as one JSON document (schema p2prange.doctor, version \
     1): audits with structured violations (code, message, context) plus a \
     summary. Text output is suppressed; exit status is unchanged."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let run seed peers publishes replicate hinted fail_names drill json =
  let config =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_spread_identifiers true
    |> Config.with_kl ~k:Config.default.Config.k ~l:1
    |> (if replicate then
          Config.with_balancing
            (Config.Replicate
               { r = 2; hot = Balance.Tracker.Absolute 8; window = 512 })
        else Fun.id)
    |> (if hinted || drill then Config.with_hinted_handoff true else Fun.id)
    |> if drill then
         Config.with_faults
           { Config.spec = Faults.Plane.no_faults; retry = Faults.Retry.default }
       else Fun.id
  in
  let sys = System.create ~config ~seed ~n_peers:peers () in
  let all = Array.of_list (System.peers sys) in
  let rng = Prng.Splitmix.create seed in
  let stream =
    Workload.Query_workload.create
      (Workload.Query_workload.Repeating { unique = 256 })
      ~domain:config.Config.domain ~seed
  in
  let publish_one () =
    (* Publishers come from the back half of the ring, which neither the
       drill nor sensible --fail lists touch. *)
    let from = all.(Array.length all / 2 + Prng.Splitmix.int rng (Array.length all / 2)) in
    ignore
      (System.publish sys ~from (Workload.Query_workload.next stream)
        : P2prange.Query_result.lookup_stats)
  in
  for _ = 1 to publishes do
    publish_one ()
  done;
  let violations = ref 0 in
  let audits = ref [] in
  let audit label =
    let v = System.check_invariants_detailed sys in
    violations := !violations + List.length v;
    audits := (label, v) :: !audits;
    if not json then
      match v with
      | [] -> Format.printf "%-24s ok@." label
      | v ->
        List.iter
          (fun e -> Format.printf "%-24s %s@." label e.P2prange.Error.message)
          v
  in
  List.iter
    (fun name ->
      match System.peer_by_name sys name with
      | p -> System.fail_peer sys p
      | exception P2prange.Error.Error _ ->
        prerr_endline ("doctor: unknown peer " ^ name);
        exit 1)
    fail_names;
  if fail_names <> [] then begin
    for _ = 1 to 100 do
      publish_one ()
    done;
    audit "after failures"
  end;
  if drill then begin
    let plane = Option.get (System.fault_plane sys) in
    let id i = Peer.id all.(i) in
    audit "seeded";
    Faults.Plane.partition plane [ List.init (Stdlib.min 8 (peers / 2)) id ];
    for _ = 1 to 100 do
      publish_one ()
    done;
    Faults.Plane.heal plane;
    System.repair sys;
    audit "healed+repaired";
    let victims = List.init (Stdlib.min 6 (peers / 4)) (fun i -> id (peers / 4 + i)) in
    List.iter (fun i -> Faults.Plane.crash plane i) victims;
    for _ = 1 to 100 do
      publish_one ()
    done;
    List.iter (fun i -> Faults.Plane.recover plane i) victims;
    System.repair sys;
    audit "recovered+repaired"
  end;
  if fail_names = [] && not drill then audit "seeded";
  if json then begin
    let audit_json (label, v) =
      Obs.Json.Obj
        [
          ("label", Obs.Json.String label);
          ("ok", Obs.Json.Bool (v = []));
          ( "violations",
            Obs.Json.List
              (List.map
                 (fun e ->
                   Obs.Json.Obj
                     [
                       ( "code",
                         Obs.Json.String
                           (P2prange.Error.code_name e.P2prange.Error.code) );
                       ("message", Obs.Json.String e.P2prange.Error.message);
                       ( "context",
                         Obs.Json.Obj
                           (List.map
                              (fun (k, value) -> (k, Obs.Json.String value))
                              e.P2prange.Error.context) );
                     ])
                 v) );
        ]
    in
    let doc =
      Obs.Json.Obj
        [
          ("schema_version", Obs.Json.Int 1);
          ("kind", Obs.Json.String "p2prange.doctor");
          ("seed", Obs.Json.String (Int64.to_string seed));
          ("peers", Obs.Json.Int peers);
          ("audits", Obs.Json.List (List.map audit_json (List.rev !audits)));
          ( "summary",
            Obs.Json.Obj
              [
                ("audits", Obs.Json.Int (List.length !audits));
                ("violations", Obs.Json.Int !violations);
                ("entries", Obs.Json.Int (System.total_entries sys));
                ("replicated", Obs.Json.Int (System.replicated_buckets sys));
                ("migrated", Obs.Json.Int (System.migrated_slices sys));
                ("parked_hints", Obs.Json.Int (System.parked_hints sys));
              ] );
          ("ok", Obs.Json.Bool (!violations = 0));
        ]
    in
    print_endline (Obs.Json.to_string doc);
    if !violations > 0 then exit 1
  end
  else begin
    Format.printf
      "peers=%d entries=%d replicated=%d migrated=%d parked hints=%d@." peers
      (System.total_entries sys)
      (System.replicated_buckets sys)
      (System.migrated_slices sys)
      (System.parked_hints sys);
    if !violations > 0 then begin
      Format.printf "doctor: %d invariant violation(s)@." !violations;
      exit 1
    end;
    Format.printf "doctor: all invariants hold@."
  end

let cmd =
  let doc =
    "Audit System.check_invariants over a deterministic system, optionally \
     after failures or a full partition/crash/repair drill."
  in
  Cmd.v
    (Cmd.info "doctor" ~version:"1.0.0" ~doc)
    Term.(
      const run $ seed_t $ peers_t $ publishes_t $ replicate_t $ hinted_t
      $ fail_t $ drill_t $ json_t)

let () = exit (Cmd.eval cmd)

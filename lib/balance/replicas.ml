let replica_set ring ?(alive = fun _ -> true) ?(group = fun id -> id)
    ~identifier ~r () =
  if r < 1 then invalid_arg "Replicas.replica_set: r must be >= 1";
  Obs.Trace.with_span "balance.replica_set" (fun () ->
      Obs.Trace.set_int "identifier" identifier;
      Obs.Trace.set_int "r" r;
      let owner = Chord.Ring.owner ring identifier in
      let taken = Hashtbl.create (r + 1) in
      Hashtbl.replace taken (group owner) ();
      let replicas =
        List.fold_left
          (fun acc node ->
            if List.length acc >= r then acc
            else
              let g = group node in
              if Hashtbl.mem taken g || not (alive node) then acc
              else begin
                Hashtbl.replace taken g ();
                node :: acc
              end)
          []
          (* Walk far enough that grouped (virtual-node) duplicates and dead
             nodes cannot exhaust the candidate list prematurely. *)
          (Chord.Ring.successors ring owner ((r + 1) * 8))
      in
      Obs.Trace.set_int "owner" owner;
      Obs.Trace.set_int "chosen" (1 + List.length replicas);
      owner :: List.rev replicas)

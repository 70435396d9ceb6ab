let replica_set ring ?(alive = fun _ -> true) ~identifier ~r () =
  if r < 1 then invalid_arg "Replicas.replica_set: r must be >= 1";
  Obs.Trace.with_span "balance.replica_set" (fun () ->
      Obs.Trace.set_int "identifier" identifier;
      Obs.Trace.set_int "r" r;
      let owner = Chord.Ring.owner ring identifier in
      (* One successor at a time, nearest first, over a bounded stretch of
         the ring so a run of dead nodes cannot send the walk all the way
         round. *)
      let rec walk node left chosen acc =
        if chosen = r || left = 0 then List.rev acc
        else
          let next = Chord.Ring.successor ring node in
          if alive next then walk next (left - 1) (chosen + 1) (next :: acc)
          else walk next (left - 1) chosen acc
      in
      let replicas =
        walk owner (Stdlib.min ((r + 1) * 8) (Chord.Ring.size ring - 1)) 0 []
      in
      Obs.Trace.set_int "owner" owner;
      Obs.Trace.set_int "chosen" (1 + List.length replicas);
      owner :: replicas)

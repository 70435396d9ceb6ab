module ISet = Set.Make (Int)

type node = { id : int; mutable zone : Zone.t; mutable neighbours : ISet.t }

type t = { dims : int; nodes : (int, node) Hashtbl.t }

let create ~dims =
  if dims < 1 then invalid_arg "Can.Network.create: dims must be at least 1";
  { dims; nodes = Hashtbl.create 64 }

let dims t = t.dims
let size t = Hashtbl.length t.nodes

let node_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort Int.compare

let node_exn t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let neighbours t id = ISet.elements (node_exn t id).neighbours

let add_first t id =
  if size t <> 0 then invalid_arg "Can.Network.add_first: overlay not empty";
  Hashtbl.replace t.nodes id
    { id; zone = Zone.full ~dims:t.dims; neighbours = ISet.empty }

let check_point t p =
  if Array.length p <> t.dims then
    invalid_arg "Can.Network: point dimension mismatch";
  Array.iter
    (fun c ->
      if not (0.0 <= c && c < 1.0) then
        invalid_arg "Can.Network: point coordinate outside [0, 1)")
    p

let owner_of_point t p =
  check_point t p;
  let found = ref None in
  Hashtbl.iter
    (fun _ n -> if Zone.contains n.zone p then found := Some n.id)
    t.nodes;
  match !found with
  | Some id -> id
  | None -> invalid_arg "Can.Network.owner_of_point: empty overlay"

let max_hops = 10_000

let lookup t ~from ~point =
  check_point t point;
  match Hashtbl.find_opt t.nodes from with
  | None -> None
  | Some start ->
    let visited = Hashtbl.create 64 in
    let rec route n hops =
      if hops > max_hops then None
      else if Zone.contains n.zone point then Some (n.id, hops)
      else begin
        Hashtbl.replace visited n.id ();
        (* Greedy: the unvisited neighbour whose zone is nearest the
           target. Visited-filtering breaks the rare ties that would
           otherwise cycle on the torus. *)
        let best = ref None in
        ISet.iter
          (fun nid ->
            if not (Hashtbl.mem visited nid) then begin
              let neighbour = node_exn t nid in
              let d = Zone.distance_to_point neighbour.zone point in
              match !best with
              | Some (_, bd) when bd <= d -> ()
              | Some _ | None -> best := Some (neighbour, d)
            end)
          n.neighbours;
        match !best with
        | Some (next, _) -> route next (hops + 1)
        | None -> None
      end
    in
    route start 0

(* Recompute the neighbour relation for [n] against a candidate set,
   fixing both sides of each edge. *)
let refresh_neighbours t n ~candidates =
  ISet.iter
    (fun cid ->
      if cid <> n.id then begin
        match Hashtbl.find_opt t.nodes cid with
        | None -> ()
        | Some c ->
          if Zone.adjacent n.zone c.zone then begin
            n.neighbours <- ISet.add cid n.neighbours;
            c.neighbours <- ISet.add n.id c.neighbours
          end
          else begin
            n.neighbours <- ISet.remove cid n.neighbours;
            c.neighbours <- ISet.remove n.id c.neighbours
          end
      end)
    candidates

let join t id ~at ~via =
  check_point t at;
  if Hashtbl.mem t.nodes id then
    invalid_arg "Can.Network.join: identifier already taken";
  let via_node = node_exn t via in
  let owner_id =
    match lookup t ~from:via_node.id ~point:at with
    | Some (owner, _) -> owner
    | None -> owner_of_point t at (* greedy failed; fall back to ground truth *)
  in
  let owner = node_exn t owner_id in
  let lower, upper = Zone.split owner.zone in
  (* The new node takes the half containing the join point, the owner keeps
     the other, so repeated joins at random points split dense regions. *)
  let owner_zone, new_zone =
    if Zone.contains lower at then (upper, lower) else (lower, upper)
  in
  let fresh = { id; zone = new_zone; neighbours = ISet.empty } in
  Hashtbl.replace t.nodes id fresh;
  let affected = ISet.add owner.id (ISet.add id owner.neighbours) in
  owner.zone <- owner_zone;
  refresh_neighbours t owner ~candidates:affected;
  refresh_neighbours t fresh ~candidates:affected

let join_random t id ~rng ~via =
  let at = Array.init t.dims (fun _ -> Prng.Splitmix.float rng) in
  join t id ~at ~via

let point_of_key t key =
  Array.init t.dims (fun i ->
      let digest = P2p_digest.Sha1.digest_string (Printf.sprintf "%s#%d" key i) in
      float_of_int (P2p_digest.Sha1.to_uint32 digest) /. 4294967296.0)

let lookup_key t ~from key = lookup t ~from ~point:(point_of_key t key)

let invariants_ok t =
  let nodes = Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes [] in
  let volume = List.fold_left (fun acc n -> acc +. Zone.volume n.zone) 0.0 nodes in
  let volume_ok = Float.abs (volume -. 1.0) < 1e-9 in
  let disjoint_ok =
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            a.id = b.id
            || not (Zone.contains b.zone (Zone.centre a.zone)))
          nodes)
      nodes
  in
  let neighbours_ok =
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            if a.id = b.id then true
            else begin
              let linked = ISet.mem b.id a.neighbours in
              let reverse = ISet.mem a.id b.neighbours in
              let adjacent = Zone.adjacent a.zone b.zone in
              linked = adjacent && reverse = adjacent
            end)
          nodes)
      nodes
  in
  volume_ok && disjoint_ok && neighbours_ok

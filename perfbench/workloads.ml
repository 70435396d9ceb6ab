(* The benchmark's workloads: a system configuration each, and the op
   stream a seed generates for it.

   Every stream the program sees — ranges, issuing peers, churn victims —
   is drawn here from the workload seed before the system exists. The
   system's own seed (its hash functions) is part of the workload's
   configuration and does not move with the workload seed. *)

module Range = Rangeset.Range
module Config = P2prange.Config
module Splitmix = Prng.Splitmix
module Qw = Workload.Query_workload

type op =
  | Query of int * Range.t  (** issuing peer index, range *)
  | Publish of int * Range.t
  | Batch of int * Range.t list  (** one [System.query_batch] call *)
  | Fail of int
  | Recover of int

(** The ranges a workload asks for. *)
type shape =
  | Uniform_pairs  (** both endpoints uniform over the domain *)
  | Hotspots of { hotspots : int; spread : int; s : float }
      (** half-widths uniform in [\[0, spread\]] around one of [hotspots]
          centres picked by a Zipf law of exponent [s]. The centres are
          drawn from the system seed, so they are part of the workload,
          and only the draws among them follow the workload seed. *)

(** How a workload issues its ops. *)
type traffic =
  | Read_write  (** three queries per publish from uniformly random peers *)
  | Batched
      (** a fixed pool of client peers; each fourth round is [batch_size]
          single publishes, the others one batch of [batch_size] ranges *)
  | Churn
      (** [Read_write] from random live peers; every [churn_every] ops a
          random live peer fails, and once a sixteenth of the peers are
          down the one down longest recovers. Ends with recover-all. *)

type t = {
  name : string;
  peers : int;
  system_seed : int64;
  config : Config.t;
  shape : shape;  (** ranges over [config.domain] *)
  prepop : int;  (** publishes before the timed phase *)
  ops : int;  (** queries and publishes per timed phase *)
  traffic : traffic;
}

type stream = {
  prepop_ops : (int * Range.t) array;  (** (peer, range) publishes *)
  calls : op array;  (** the timed phase, in order *)
}

let held_out_seed = 7919
let wide_domain = Range.make ~lo:0 ~hi:((1 lsl 20) - 1)

let churn_config =
  Config.default
  |> Config.with_faults
       {
         Config.spec = { Faults.Plane.no_faults with Faults.Plane.drop = 0.02 };
         retry = Faults.Retry.default;
       }
  |> Config.with_hinted_handoff true
  |> Config.with_balancing
       (Config.Replicate_and_migrate
          {
            replicate =
              { Config.r = 2; hot = Balance.Tracker.Absolute 8; window = 512 };
            migrate = Config.default_migrate;
          })

let all =
  [
    {
      name = "paper-rw";
      peers = 1000;
      system_seed = 42L;
      config = Config.default;
      shape = Uniform_pairs;
      prepop = 2000;
      ops = 30_000;
      traffic = Read_write;
    };
    {
      name = "wide-hash";
      peers = 64;
      system_seed = 42L;
      config =
        Config.default
        |> Config.with_domain wide_domain
        |> Config.with_domain_cache false;
      shape = Hotspots { hotspots = 4096; spread = 100; s = 1.0 };
      prepop = 256;
      ops = 6_000;
      traffic = Read_write;
    };
    {
      name = "scale-batch";
      peers = 100_000;
      system_seed = 42L;
      config = Config.default;
      shape = Hotspots { hotspots = 64; spread = 32; s = 1.0 };
      prepop = 2048;
      ops = 32 * 1024;
      traffic = Batched;
    };
    {
      name = "churn-rw";
      peers = 256;
      system_seed = 42L;
      config = churn_config;
      shape = Hotspots { hotspots = 32; spread = 64; s = 1.0 };
      prepop = 1024;
      ops = 50_000;
      traffic = Churn;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let fault_free w = Option.is_none w.config.Config.faults

(* Number of queries and publishes an op carries. *)
let op_count = function
  | Query _ | Publish _ -> 1
  | Batch (_, ranges) -> List.length ranges
  | Fail _ | Recover _ -> 0

let batch_size = 32
let clients = 64
let churn_every = 200

let range_source w ~seed =
  let domain = w.config.Config.domain in
  match w.shape with
  | Uniform_pairs ->
    let q = Qw.create Qw.Uniform_pairs ~domain ~seed in
    fun () -> Qw.next q
  | Hotspots { hotspots; spread; s } ->
    let lo = Range.lo domain and hi = Range.hi domain in
    let clamp v = Stdlib.max lo (Stdlib.min hi v) in
    let centres =
      let rng = Splitmix.create w.system_seed in
      Array.init hotspots (fun _ -> Splitmix.int_in_range rng ~lo ~hi)
    in
    let table = Prng.Distribution.zipf_table ~n:hotspots ~s in
    let rng = Splitmix.create seed in
    fun () ->
      let centre = centres.(Prng.Distribution.sample_zipf table rng - 1) in
      let half = Splitmix.int_in_range rng ~lo:0 ~hi:spread in
      Range.make ~lo:(clamp (centre - half)) ~hi:(clamp (centre + half))

(* Three queries per publish. *)
let read_write i peer range =
  if i mod 4 = 3 then Publish (peer, range) else Query (peer, range)

let generate w ~seed ~ops =
  let root = Splitmix.create (Int64.of_int seed) in
  let range_seed = Splitmix.next_int64 root in
  let peer_rng = Splitmix.split root in
  let churn_rng = Splitmix.split root in
  let next_range = range_source w ~seed:range_seed in
  let issuer =
    match w.traffic with
    | Batched ->
      let pool =
        Array.of_list
          (Splitmix.sample_distinct peer_rng clients ~lo:0 ~hi:(w.peers - 1))
      in
      fun () -> pool.(Splitmix.int peer_rng clients)
    | Read_write | Churn -> fun () -> Splitmix.int peer_rng w.peers
  in
  let prepop_ops =
    Array.init w.prepop (fun _ ->
        let p = issuer () in
        (p, next_range ()))
  in
  let calls =
    match w.traffic with
    | Read_write ->
      Array.init ops (fun i ->
          let p = issuer () in
          read_write i p (next_range ()))
    | Batched ->
      List.init
        (Stdlib.max 1 (ops / batch_size))
        (fun r ->
          if r mod 4 = 3 then
            List.init batch_size (fun _ ->
                let p = issuer () in
                Publish (p, next_range ()))
          else
            let p = issuer () in
            [ Batch (p, List.init batch_size (fun _ -> next_range ())) ])
      |> List.concat |> Array.of_list
    | Churn ->
      (* Issuing peers and victims are drawn among the live peers. *)
      let alive = Array.make w.peers true in
      let live = ref w.peers in
      let down = Queue.create () in
      let pick_live rng =
        let k = ref (Splitmix.int rng !live) and found = ref (-1) in
        Array.iteri
          (fun i a ->
            if a && !found < 0 then if !k = 0 then found := i else decr k)
          alive;
        !found
      in
      let calls = ref [] in
      for i = 0 to ops - 1 do
        if i > 0 && i mod churn_every = 0 then begin
          let victim = pick_live churn_rng in
          alive.(victim) <- false;
          decr live;
          Queue.push victim down;
          calls := Fail victim :: !calls;
          if Queue.length down >= w.peers / 16 then begin
            let back = Queue.pop down in
            alive.(back) <- true;
            incr live;
            calls := Recover back :: !calls
          end
        end;
        let p = pick_live peer_rng in
        calls := read_write i p (next_range ()) :: !calls
      done;
      Array.of_list (List.rev !calls)
  in
  { prepop_ops; calls }

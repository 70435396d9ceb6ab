type matching = Jaccard_match | Containment_match

type padding =
  | No_padding
  | Fixed_padding of float
  | Adaptive_padding of { initial : float; step : float; target_recall : float }

type replicate = { r : int; hot : Balance.Tracker.hot_policy; window : int }

type migrate = {
  check_every : int;
  overload : float;
  cooldown : int;
  min_share : int;
  window : int;
}

type balancing =
  | No_balancing
  | Replicate of replicate
  | Migrate of migrate
  | Replicate_and_migrate of { replicate : replicate; migrate : migrate }

let default_migrate =
  { check_every = 256; overload = 1.5; cooldown = 2; min_share = 16; window = 2048 }

type faults = { spec : Faults.Plane.spec; retry : Faults.Retry.policy }

type learned = { max_error : int; retrain_after : int }

type substrate = Chord | Learned of learned

let default_learned = { max_error = 8; retrain_after = 4 }

type t = {
  family : Lsh.Family.kind;
  k : int;
  l : int;
  domain : Rangeset.Range.t;
  matching : matching;
  padding : padding;
  peer_index : bool;
  cache_on_inexact : bool;
  use_domain_cache : bool;
  store_policy : Store.policy;
  spread_identifiers : bool;
  balancing : balancing;
  faults : faults option;
  hinted_handoff : bool;
  signature_cache : int;
  substrate : substrate;
}

let default =
  {
    family = Lsh.Family.Approx_minwise;
    k = 20;
    l = 5;
    domain = Rangeset.Range.make ~lo:0 ~hi:1000;
    matching = Jaccard_match;
    padding = No_padding;
    peer_index = false;
    cache_on_inexact = true;
    use_domain_cache = true;
    store_policy = Store.Unbounded;
    spread_identifiers = false;
    balancing = No_balancing;
    faults = None;
    hinted_handoff = false;
    signature_cache = 1024;
    substrate = Chord;
  }

let paper_quality ~family = { default with family }

(* Builder: each function takes the value first so configs pipe,
   [Config.default |> with_balancing b |> with_faults f]. *)

let with_family family t = { t with family }
let with_kl ~k ~l t = { t with k; l }
let with_domain domain t = { t with domain }
let with_matching matching t = { t with matching }
let with_padding padding t = { t with padding }
let with_peer_index peer_index t = { t with peer_index }
let with_cache_on_inexact cache_on_inexact t = { t with cache_on_inexact }
let with_domain_cache use_domain_cache t = { t with use_domain_cache }
let with_store_policy store_policy t = { t with store_policy }
let with_spread_identifiers spread_identifiers t = { t with spread_identifiers }
let with_balancing balancing t = { t with balancing }
let with_faults faults t = { t with faults = Some faults }
let with_hinted_handoff hinted_handoff t = { t with hinted_handoff }
let with_signature_cache signature_cache t = { t with signature_cache }
let with_substrate substrate t = { t with substrate }

(* Validation reports through [Error]: code [Invalid_config], the field
   (and offending value where it reads well) in the context. *)
let reject ~field ?value message =
  let context =
    ("field", field) :: (match value with None -> [] | Some v -> [ ("value", v) ])
  in
  Error.raise_error ~context Error.Invalid_config message

let validate_replicate { r; hot; window } =
  if r < 1 then
    reject ~field:"balancing.r" ~value:(string_of_int r)
      "Config: replication factor must be >= 1";
  if window < 1 then
    reject ~field:"balancing.window" ~value:(string_of_int window)
      "Config: hotness window must be >= 1";
  match hot with
  | Balance.Tracker.Absolute n ->
    if n < 1 then
      reject ~field:"balancing.hot" ~value:(string_of_int n)
        "Config: absolute hotness threshold must be >= 1"

let validate_migrate { check_every; overload; cooldown; min_share; window } =
  if check_every < 1 then
    reject ~field:"balancing.check_every" ~value:(string_of_int check_every)
      "Config: migration check_every must be >= 1";
  if not (Float.is_finite overload) || overload <= 1.0 then
    reject ~field:"balancing.overload" ~value:(string_of_float overload)
      "Config: migration overload factor must exceed 1.0";
  if cooldown < 0 then
    reject ~field:"balancing.cooldown" ~value:(string_of_int cooldown)
      "Config: migration cooldown must be >= 0";
  if min_share < 1 then
    reject ~field:"balancing.min_share" ~value:(string_of_int min_share)
      "Config: migration min_share must be >= 1";
  if window < 1 then
    reject ~field:"balancing.window" ~value:(string_of_int window)
      "Config: migration window must be >= 1"

let validate t =
  if t.k < 1 then
    reject ~field:"k" ~value:(string_of_int t.k) "Config: k must be >= 1";
  if t.l < 1 then
    reject ~field:"l" ~value:(string_of_int t.l) "Config: l must be >= 1";
  (match t.store_policy with
  | Store.Unbounded -> ()
  | Store.Lru n | Store.Fifo n ->
    if n < 1 then
      reject ~field:"store_policy" ~value:(string_of_int n)
        "Config: store capacity must be >= 1");
  if Rangeset.Range.lo t.domain < 0 then
    reject ~field:"domain"
      ~value:(string_of_int (Rangeset.Range.lo t.domain))
      "Config: domain must be non-negative (values are hashed raw)";
  (match t.padding with
  | No_padding -> ()
  | Fixed_padding f ->
    if f < 0.0 then
      reject ~field:"padding" ~value:(string_of_float f)
        "Config: negative padding fraction"
  | Adaptive_padding { initial; step; target_recall } ->
    if initial < 0.0 || step <= 0.0 || target_recall < 0.0 || target_recall > 1.0
    then reject ~field:"padding" "Config: bad adaptive padding parameters");
  (match t.balancing with
  | No_balancing -> ()
  | Replicate r -> validate_replicate r
  | Migrate m -> validate_migrate m
  | Replicate_and_migrate { replicate; migrate } ->
    validate_replicate replicate;
    validate_migrate migrate);
  if t.signature_cache < 0 then
    reject ~field:"signature_cache" ~value:(string_of_int t.signature_cache)
      "Config: signature_cache must be >= 0 (0 disables)";
  (match t.substrate with
  | Chord -> ()
  | Learned { max_error; retrain_after } ->
    if max_error < 0 then
      reject ~field:"substrate.max_error" ~value:(string_of_int max_error)
        "Config: learned max_error must be >= 0";
    if retrain_after < 1 then
      reject ~field:"substrate.retrain_after"
        ~value:(string_of_int retrain_after)
        "Config: learned retrain_after must be >= 1");
  match t.faults with
  | None -> ()
  | Some { spec; retry } ->
    (* The fault plane raises the same structured [Error] (its validation
       lives in the shared error library), already naming the offending
       [faults.*] / [retry.*] field — nothing to re-wrap. *)
    Faults.Plane.validate_spec spec;
    Faults.Retry.validate retry

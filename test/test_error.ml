(* The structured public-API error type: stable codes, message rendering,
   and regression coverage on what the validated front doors raise. *)

module Error = P2prange.Error
module Config = P2prange.Config
module Sys_ = P2prange.System

let code_names () =
  Alcotest.(check string) "invalid-config" "invalid-config"
    (Error.code_name Error.Invalid_config);
  Alcotest.(check string) "invalid-topology" "invalid-topology"
    (Error.code_name Error.Invalid_topology);
  Alcotest.(check string) "unknown-peer" "unknown-peer"
    (Error.code_name Error.Unknown_peer)

let rendering () =
  let e =
    {
      Error.code = Error.Invalid_config;
      message = "Config: k must be >= 1";
      context = [ ("field", "k"); ("value", "0") ];
    }
  in
  Alcotest.(check string) "to_string with context"
    "[invalid-config] Config: k must be >= 1 (field=k, value=0)"
    (Error.to_string e);
  Alcotest.(check string) "to_string without context"
    "[unknown-peer] System.fail_peer: unknown peer"
    (Error.to_string
       {
         Error.code = Error.Unknown_peer;
         message = "System.fail_peer: unknown peer";
         context = [];
       });
  Alcotest.(check string) "pp agrees with to_string" (Error.to_string e)
    (Format.asprintf "%a" Error.pp e)

let raise_helpers () =
  Alcotest.check_raises "raise_error"
    (Error.Error
       { Error.code = Error.Invalid_config; message = "boom"; context = [] })
    (fun () -> Error.raise_error Error.Invalid_config "boom");
  Alcotest.check_raises "failf formats"
    (Error.Error
       {
         Error.code = Error.Invalid_topology;
         message = "need 3 peers";
         context = [ ("n", "3") ];
       })
    (fun () ->
      Error.failf ~context:[ ("n", "3") ] Error.Invalid_topology "need %d peers" 3)

(* Message regression: the exact text and context the validated entry
   points raise is public API now — embedding callers match on it. *)
let config_validation_messages () =
  let expect code message context bad =
    Alcotest.check_raises (Error.to_string { Error.code; message; context })
      (Error.Error { Error.code; message; context })
      (fun () -> Config.validate bad)
  in
  expect Error.Invalid_config "Config: k must be >= 1"
    [ ("field", "k"); ("value", "0") ]
    (Config.default |> Config.with_kl ~k:0 ~l:5);
  expect Error.Invalid_config "Config: signature_cache must be >= 0 (0 disables)"
    [ ("field", "signature_cache"); ("value", "-1") ]
    (Config.default |> Config.with_signature_cache (-1));
  expect Error.Invalid_config "Config: learned max_error must be >= 0"
    [ ("field", "substrate.max_error"); ("value", "-1") ]
    (Config.default
    |> Config.with_substrate
         (Config.Learned { Config.max_error = -1; retrain_after = 4 }));
  expect Error.Invalid_config "Config: learned retrain_after must be >= 1"
    [ ("field", "substrate.retrain_after"); ("value", "0") ]
    (Config.default
    |> Config.with_substrate
         (Config.Learned { Config.max_error = 8; retrain_after = 0 }))

let system_entry_points () =
  Alcotest.check_raises "empty peer list"
    (Error.Error
       {
         Error.code = Error.Invalid_topology;
         message = "System: need at least one peer";
         context = [];
       })
    (fun () -> ignore (Sys_.create_with_peers ~seed:1L []));
  let s = Sys_.create ~seed:7L ~n_peers:4 () in
  let other = Sys_.create_with_peers ~seed:7L [ "alpha"; "beta" ] in
  Alcotest.check_raises "recover_peer unknown"
    (Error.Error
       {
         Error.code = Error.Unknown_peer;
         message = "System.recover_peer: unknown peer";
         context = [ ("peer", "beta") ];
       })
    (fun () -> Sys_.recover_peer s (Sys_.peer_by_name other "beta"))

let suite =
  [
    Alcotest.test_case "code names are stable" `Quick code_names;
    Alcotest.test_case "to_string/pp rendering" `Quick rendering;
    Alcotest.test_case "raise helpers" `Quick raise_helpers;
    Alcotest.test_case "Config.validate messages" `Quick
      config_validation_messages;
    Alcotest.test_case "System entry points" `Quick system_entry_points;
  ]

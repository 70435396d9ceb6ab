(* SHA-1 against the FIPS 180-1 / RFC 3174 test vectors, plus the
   ring-identifier truncation. *)

let hex s = P2p_digest.Sha1.to_hex (P2p_digest.Sha1.digest_string s)

let check_hex name expected input =
  Alcotest.(check string) name expected (hex input)

let fips_vectors () =
  check_hex "empty string" "da39a3ee5e6b4b0d3255bfef95601890afd80709" "";
  check_hex "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" "abc";
  check_hex "two-block message"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check_hex "million a's" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (String.make 1_000_000 'a')

let padding_boundaries () =
  (* Lengths that straddle the 55/56/64-byte padding boundaries, each
     pinned to the reference digest of that many 'x' bytes. *)
  List.iter
    (fun (n, expected) ->
      check_hex (Printf.sprintf "%d x's" n) expected (String.make n 'x'))
    [
      (54, "31045e7bb077ff8d188a776b196b980388735dbb");
      (55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1");
      (56, "901305367c259952f4e7af8323f480d59f81335b");
      (57, "025ecbd5d70f8fb3c5457cd96bab13fda305dc59");
      (63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec");
      (64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163");
      (65, "78c741ddc482e4cdf8c474a0876347a0905b6233");
      (119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c");
      (120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d");
      (128, "150fa3fbdc899bd0b8f95a9fb6027f564d953762");
    ]

let avalanche () =
  (* One-bit input difference should change the digest. *)
  Alcotest.(check bool)
    "digests differ" true
    (hex "peer-1" <> hex "peer-2")

let to_uint32_range () =
  for i = 0 to 999 do
    let d = P2p_digest.Sha1.digest_string (Printf.sprintf "node-%d" i) in
    let v = P2p_digest.Sha1.to_uint32 d in
    Alcotest.(check bool) "uint32 in [0, 2^32)" true (0 <= v && v < 1 lsl 32)
  done

let to_uint32_matches_hex () =
  (* The truncation must equal the first 8 hex digits of the digest. *)
  let d = P2p_digest.Sha1.digest_string "abc" in
  let expected = int_of_string ("0x" ^ String.sub (P2p_digest.Sha1.to_hex d) 0 8) in
  Alcotest.(check int) "prefix match" expected (P2p_digest.Sha1.to_uint32 d)

let node_placement_spread () =
  (* Uniformity sanity: hashing 1000 names into 8 ring octants should give
     each octant 12.5% ± 5%. *)
  let counts = Array.make 8 0 in
  for i = 0 to 999 do
    let v = P2p_digest.Sha1.to_uint32 (P2p_digest.Sha1.digest_string (Printf.sprintf "peer-%d" i)) in
    let octant = v lsr 29 in
    counts.(octant) <- counts.(octant) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "octant within 5% of uniform" true
        (abs_float ((float_of_int c /. 1000.0) -. 0.125) < 0.05))
    counts

let suite =
  [
    Alcotest.test_case "FIPS/RFC test vectors" `Quick fips_vectors;
    Alcotest.test_case "padding boundary lengths" `Quick padding_boundaries;
    Alcotest.test_case "small input change changes digest" `Quick avalanche;
    Alcotest.test_case "to_uint32 stays in ring range" `Quick to_uint32_range;
    Alcotest.test_case "to_uint32 equals hex prefix" `Quick to_uint32_matches_hex;
    Alcotest.test_case "node placement roughly uniform" `Quick node_placement_spread;
  ]

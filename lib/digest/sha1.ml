type digest = string

(* Words are native ints holding 32-bit values; every sum and rotation is
   masked back to 32 bits, which is the specification's arithmetic modulo
   2^32. *)

let mask = 0xFFFF_FFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let f t b c d =
  if t < 20 then (b land c) lor (lnot b land d)
  else if t < 40 then b lxor c lxor d
  else if t < 60 then (b land c) lor (b land d) lor (c land d)
  else b lxor c lxor d

let k t =
  if t < 20 then 0x5A827999
  else if t < 40 then 0x6ED9EBA1
  else if t < 60 then 0x8F1BBCDC
  else 0xCA62C1D6

let digest_string msg =
  let len = String.length msg in
  (* Padding: a 0x80 byte, zeros, then the 64-bit big-endian bit length,
     to a multiple of 64 bytes. *)
  let padded_len = ((len + 8) / 64 * 64) + 64 in
  let buf = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 buf 0 len;
  Bytes.set buf len '\x80';
  Bytes.set_int64_be buf (padded_len - 8) (Int64.of_int (len * 8));
  let h0 = ref 0x67452301
  and h1 = ref 0xEFCDAB89
  and h2 = ref 0x98BADCFE
  and h3 = ref 0x10325476
  and h4 = ref 0xC3D2E1F0 in
  let w = Array.make 80 0 in
  for block = 0 to (padded_len / 64) - 1 do
    let base = block * 64 in
    for t = 0 to 15 do
      w.(t) <- Int32.to_int (Bytes.get_int32_be buf (base + (t * 4))) land mask
    done;
    for t = 16 to 79 do
      w.(t) <- rotl (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
    done;
    let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
    for t = 0 to 79 do
      let temp = (rotl !a 5 + f t !b !c !d + !e + w.(t) + k t) land mask in
      e := !d;
      d := !c;
      c := rotl !b 30;
      b := !a;
      a := temp
    done;
    h0 := (!h0 + !a) land mask;
    h1 := (!h1 + !b) land mask;
    h2 := (!h2 + !c) land mask;
    h3 := (!h3 + !d) land mask;
    h4 := (!h4 + !e) land mask
  done;
  let out = Bytes.create 20 in
  Bytes.set_int32_be out 0 (Int32.of_int !h0);
  Bytes.set_int32_be out 4 (Int32.of_int !h1);
  Bytes.set_int32_be out 8 (Int32.of_int !h2);
  Bytes.set_int32_be out 12 (Int32.of_int !h3);
  Bytes.set_int32_be out 16 (Int32.of_int !h4);
  Bytes.unsafe_to_string out

let to_hex d =
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let to_uint32 d = Int32.to_int (String.get_int32_be d 0) land mask

(* Tests for scion_crypto: SHA-256 against FIPS vectors, HMAC against
   RFC 4231 vectors, the simulated signature scheme, and TRCs. *)

let check = Alcotest.check

(* --- SHA-256 FIPS 180-4 test vectors --- *)

let test_sha256_empty () =
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "")

let test_sha256_abc () =
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc")

let test_sha256_two_blocks () =
  check Alcotest.string "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  check Alcotest.string "1M x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_exact_block () =
  (* 64 bytes: exercises the padding path that adds a whole extra block. *)
  check Alcotest.string "64 bytes"
    "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
    (Sha256.hex (String.make 64 'a'))

let test_sha256_55_56_bytes () =
  (* 55 bytes fits length in the same block; 56 does not. *)
  check Alcotest.string "55 bytes"
    "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
    (Sha256.hex (String.make 55 'a'));
  check Alcotest.string "56 bytes"
    "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
    (Sha256.hex (String.make 56 'a'))

let test_sha256_digest_size () =
  check Alcotest.int "digest size" 32 (String.length (Sha256.digest "x"))

(* --- HMAC RFC 4231 vectors --- *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Test_pcb_codec.hex (Hmac.mac ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Test_pcb_codec.hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_rfc4231_case6_long_key () =
  let key = String.make 131 '\xaa' in
  check Alcotest.string "case 6 (key > block size)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Test_pcb_codec.hex
       (Hmac.mac ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_truncated () =
  let tag = Hmac.truncated ~key:"k" ~length:6 "msg" in
  check Alcotest.int "6 bytes" 6 (String.length tag);
  check Alcotest.string "is a prefix" (String.sub (Hmac.mac ~key:"k" "msg") 0 6) tag

let test_hmac_truncated_invalid () =
  Alcotest.check_raises "length 0" (Invalid_argument "Hmac.truncated: length outside [1, 32]")
    (fun () -> ignore (Hmac.truncated ~key:"k" ~length:0 "m"))

let test_hmac_verify () =
  let tag = Hmac.truncated ~key:"secret" ~length:6 "payload" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key:"secret" ~tag "payload");
  Alcotest.(check bool) "rejects wrong payload" false
    (Hmac.verify ~key:"secret" ~tag "other");
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify ~key:"x" ~tag "payload");
  Alcotest.(check bool) "rejects empty tag" false (Hmac.verify ~key:"secret" ~tag:"" "payload")

let prop_hmac_verify_roundtrip =
  QCheck.Test.make ~name:"verify accepts every generated mac" ~count:100
    QCheck.(pair string string)
    (fun (key, msg) ->
      let tag = Hmac.mac ~key msg in
      Hmac.verify ~key ~tag msg)

(* --- Signatures --- *)

let test_signature_sizes () =
  let size scheme =
    let ks = Signature.create_keystore () in
    String.length (Signature.sign (Signature.generate ks scheme ~id:"k") "m")
  in
  check Alcotest.int "p384" 96 (size Signature.Ecdsa_p384);
  check Alcotest.int "p256" 64 (size Signature.Ecdsa_p256);
  check Alcotest.int "ed25519" 64 (size Signature.Ed25519)

let test_signature_roundtrip () =
  let ks = Signature.create_keystore () in
  let kp = Signature.generate ks Signature.Ecdsa_p384 ~id:"as:1" in
  let s = Signature.sign kp "hello" in
  check Alcotest.int "wire size" 96 (String.length s);
  Alcotest.(check bool) "verifies" true
    (Signature.verify ks ~id:"as:1" ~msg:"hello" ~signature:s);
  Alcotest.(check bool) "wrong msg" false
    (Signature.verify ks ~id:"as:1" ~msg:"hullo" ~signature:s);
  Alcotest.(check bool) "unknown id" false
    (Signature.verify ks ~id:"as:2" ~msg:"hello" ~signature:s)

let test_signature_duplicate_id () =
  let ks = Signature.create_keystore () in
  ignore (Signature.generate ks Signature.Ecdsa_p384 ~id:"dup");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Signature.generate: duplicate key id \"dup\"") (fun () ->
      ignore (Signature.generate ks Signature.Ecdsa_p384 ~id:"dup"))

let test_signature_cross_key () =
  let ks = Signature.create_keystore () in
  let k1 = Signature.generate ks Signature.Ecdsa_p384 ~id:"a" in
  ignore (Signature.generate ks Signature.Ecdsa_p384 ~id:"b");
  let s = Signature.sign k1 "m" in
  Alcotest.(check bool) "b cannot claim a's signature" false
    (Signature.verify ks ~id:"b" ~msg:"m" ~signature:s)

(* --- TRC --- *)

let test_trc_basic () =
  let ks = Signature.create_keystore () in
  let root = Signature.generate ks Signature.Ecdsa_p384 ~id:"core:1" in
  let trc = Trc.create ~roots:[ "core:1" ] in
  let cert = Trc.issue root ~subject:"as:7" in
  Alcotest.(check bool) "valid cert" true (Trc.verify_cert ks trc cert)

let test_trc_non_root_issuer () =
  let ks = Signature.create_keystore () in
  ignore (Signature.generate ks Signature.Ecdsa_p384 ~id:"core:1");
  let rogue = Signature.generate ks Signature.Ecdsa_p384 ~id:"rogue" in
  let trc = Trc.create ~roots:[ "core:1" ] in
  let cert = Trc.issue rogue ~subject:"as:7" in
  Alcotest.(check bool) "rejected" false (Trc.verify_cert ks trc cert)

let test_trc_empty_roots () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Trc.create: a TRC needs at least one trust root") (fun () ->
      ignore (Trc.create ~roots:[]))

let suite =
  [
    ("sha256 empty", `Quick, test_sha256_empty);
    ("sha256 abc", `Quick, test_sha256_abc);
    ("sha256 two blocks", `Quick, test_sha256_two_blocks);
    ("sha256 million a", `Slow, test_sha256_million_a);
    ("sha256 exact block", `Quick, test_sha256_exact_block);
    ("sha256 55/56 bytes", `Quick, test_sha256_55_56_bytes);
    ("sha256 digest size", `Quick, test_sha256_digest_size);
    ("hmac rfc4231 case 1", `Quick, test_hmac_rfc4231_case1);
    ("hmac rfc4231 case 2", `Quick, test_hmac_rfc4231_case2);
    ("hmac rfc4231 case 6", `Quick, test_hmac_rfc4231_case6_long_key);
    ("hmac truncated", `Quick, test_hmac_truncated);
    ("hmac truncated invalid", `Quick, test_hmac_truncated_invalid);
    ("hmac verify", `Quick, test_hmac_verify);
    QCheck_alcotest.to_alcotest prop_hmac_verify_roundtrip;
    ("signature sizes", `Quick, test_signature_sizes);
    ("signature roundtrip", `Quick, test_signature_roundtrip);
    ("signature duplicate id", `Quick, test_signature_duplicate_id);
    ("signature cross key", `Quick, test_signature_cross_key);
    ("trc basic", `Quick, test_trc_basic);
    ("trc non-root issuer", `Quick, test_trc_non_root_issuer);
    ("trc empty roots", `Quick, test_trc_empty_roots);
  ]


(* Tests for scion_crypto: SHA-256 against FIPS vectors and coreutils
   [sha256sum] digests, HMAC against RFC 4231 vectors, the simulated
   signature scheme, and TRCs. *)

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

(* Patterned inputs against digests computed by coreutils
   [sha256sum], an independent implementation: byte [i] of the input of
   length [n] is [(31 i + n) mod 256]. Lengths 0-130 cover every
   padding case around one and two blocks; 1000 and 1 MiB + 3 cover
   many whole blocks with a ragged tail. *)
let sha256sum_oracle =
  [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a");
    (2, "802e40a08e421a764f7749c9af19b6e490b10cd5aa6faaf0dc180853c87c038c");
    (3, "d71caa65d53e400d34d3c867092f40b207b05bea2e06068409ff8fa5c5d3757f");
    (4, "1c7155270705c237a17c0d3c18a849b81fbd2d22c93d35bbeb536246c24b1996");
    (5, "e4a1f94a3293668300ec33ca4d3c8b0fae4d53e71b703857d8f284db5da7e039");
    (6, "e2e93db41a118b2e13db833e1505938aadd5c0806dd9c419ca693a2841e3c3a3");
    (7, "13ce3403bf0ec804d44556f2fce6a75e4117680fb8791e7bc631bb7ef0d13550");
    (8, "989e92f6798d85c385d024b0f0604cca986fcaee6f27392075addc520ac2b435");
    (9, "d70c76a3688f7425ecdcfc27dcd545102efd86811f67c8d841dafaa07c99a361");
    (10, "c99fb2f6ed6f3991a0a5d42910f695b10aa722ad8a665b4ca1a955742f021522");
    (11, "e21f74703404af46152d15b3fbc769f5675f4a4d4c71d4c9c81ba2c6d14e3ca5");
    (12, "91d672972b11cc3fee0527c60b98ac5abc36925b85185ad1c4f81a93c5ddf68f");
    (13, "7743444af658dd5faa400217a7f2ca37e39851e607e19f14efe0ea4da826cd93");
    (14, "545b08f54e6ed7172b6ac6f49733c7bcf2ab176fc975f039f13171d72c754d3f");
    (15, "aa696c4cf8ff6237466887286967d3545b647837e2ae60002f977dce10a7614d");
    (16, "e8b08e9361ac06032f032ba148447ca9f5949242faf5d05b83fabda9847bdb53");
    (17, "9710e7c31c9be2ed83da26dd13dd59d7e40e2a811f67e0a81a93cdad936e3f6b");
    (18, "5451955fdb45c9c63db5a1b2f2202235a85f8b7280d1a019da61da44a6f73243");
    (19, "8a8fe5213fb690cc0e7f39e9b9beae9965ce819dc454da89688e1581d9938012");
    (20, "fa18d9fc1a2c666a70f63c048ef9c62ae7c6a5d91c925d143e3f5ed3321b43ce");
    (21, "2ebc55b086d583cc29db597ff5391664f914cf67e1c989f9110789250acf8033");
    (22, "db7ac847b408a83b89057d1116086e6858dc57ebe0cd9729cb45873192e07785");
    (23, "50d4c37290e809f6805bd42b3161b09f76508b990b00990ad78fc338dd5239ef");
    (24, "07aff2126c47740f07e817ce5e56901674aed7f491776c8fa8b460a387fb7925");
    (25, "8d4f1229cc7fb1771cb1572947352aea6f54ecacf11bd6f07f329e625f4de1cf");
    (26, "4b6fbfcd4f7b9cbcb7f1f44afa8b8af3b473aee1059b3199e718a41ac7767d7c");
    (27, "d2d772aac3d4be71cdd451208851bb1ed367374ef5fba96ccc36a8dcba21dd08");
    (28, "514ea1a9f93fab3f22eeb59bfb17e7eee97144d391e235abdc635f1f743ba50b");
    (29, "670fc89379af0da940214473d76db215ed1e52493d4fb551f889cde82a94f59a");
    (30, "444ae3fc819328397e1af7330f7b15bd84bf225e43aefcedbb624213f30c063a");
    (31, "edfdde0327a40bac4576b01666691216c18f0008b772f8828371d645b7887a62");
    (32, "2fd527b5788cf0f24ada804cc4da8bfbbcdebcb6df6948bc34365208c620f175");
    (33, "73e9c138814b667031596dd81f3cfe000bd028137446ce0ca33864f66d431058");
    (34, "7ac6c6339dfad865f5e8a7f5eab33b7ae3ea8a93f238f5a699c440f5c4006c08");
    (35, "8d668583c6e676de117d8207f6c42e6afed217e995034e1c87a3937074ba2b81");
    (36, "4859592080d403c6cc39732d02d646179348ef2ce877931f4d7ee423bbbb365b");
    (37, "e9fa7409400b4dc626fabb03eb7b6cdc1272ef3c9d6d9cc5ae62afb1f020068c");
    (38, "73945036f48e28c79cd70fdd8a408fcf070c899a398ecde72dd756dbda82a494");
    (39, "52899ff24299611e6c8b89653d4ae0422b02a098abf3c8de78cca9ffd52984ce");
    (40, "051ce772c1f23f3db55c7186e511691c965c33c7ed7dbdc1f9ef2ff7c9e0159c");
    (41, "17272cf8933d45c5db209654f6c7a19a84a1590d6d894c1386b5e11331e9bee3");
    (42, "b1285b81d4b174387dfa7cad2d9da68e23e261c9ff4c66fd93250d7ee7eb3ade");
    (43, "e9103c63985caa86513323c9d2a3da32acfc17337d936e0087072402cd347684");
    (44, "796108d4fcb1b1c04eaacc9078f89b83f64c796721ef9377a487a28e5a078225");
    (45, "302f39cf964cf7a6c8aadd340fbcfd905e630f7d3c3d584b5c0a2321670f3433");
    (46, "d3404caa70906d831b9eeef71db1340d1185b857e4f397e7279e81bc778c8a5b");
    (47, "4f68a4c132a5adefd24210a498c15a5aef250189fea1050d8e3cdbbf0b0f6499");
    (48, "5c53ed648086f0969f45313df8747e9ea6bd971e4a00671e8f9257912d80707f");
    (49, "e2625eee301e21b64a3976cd7fe2ac46dfd069a18503a2970963f4ed7a402414");
    (50, "29fe681dfbc76062098d37cd1836f8433c0b40ac5c43856d23b32a25ae9bb280");
    (51, "bc3f0a862dec5624b13d5c3a6009b14d6612b3298d411d57ccab8bb6bcb583ff");
    (52, "32ed07a443f05a2d39cd7401caa0d6a8c27a0f297f4f8f89f1fd861c2a29c335");
    (53, "053a6faee6645227714e1856b9e3fc1f9e4378318c8af75734d81275907b2794");
    (54, "1f64e4acf043076f100ed2e3fe6ab85156306e709157b623a8fb835788bc77b0");
    (55, "0c74b286e2c8b409ed0fd89f5a8344aeb274bda5d9bfbe7b8e537cfc6142736d");
    (56, "8136496fb4867a08f8c0f1afaf000ef4093ecc2d544f4f808ef9d5945ca4c2fa");
    (57, "861c42dc0dc72b220fc6518be4a00fff6c981e2be9dc70f5cb090f14c3c11c57");
    (58, "6af7b09286d4ff3e3aababf070f80571236f9defbbac63eb270efb13979a0495");
    (59, "035367c3048393eb76366a3ab12b32780cdcac69544a156735f57524373523d2");
    (60, "8820ed90b5eab7b3a4c1250847a31de66dfb85533a60abc652194e359f35e324");
    (61, "2c5a7eeaf47f8ae7a1dd6f051ec3e178d1034cabd702f4283e5113ad8bdc35ae");
    (62, "411a6b7f113daa4a03c42ab4fa1165f8f38990859a3364ec714b29709af84e85");
    (63, "a7c6fa71b10f6f7bd8ce26f79db5693d265b2cde42e61955077e77c8764bc26f");
    (64, "3ea97ec766b8247739939247b4d4cb362cf13c100deb0cc2ba5391f762023852");
    (65, "7fc8e770811fb1035a2279b782a7b04024fe6a2229e9bb11a99686d3ca65f4a7");
    (66, "6fb2bc11890844d94cfb66b493e7e9986f8ee08f1c0585af7421a30b7b2c3b23");
    (67, "62f571860152698fb2a6045fc9394493b50762300ba700f31136ab53c72cc621");
    (68, "51bb36ebd8e4e0ef71481457ff024bd4ddae917aebd7d5b3c99534318a0f3f78");
    (69, "0b7712b00294a0ab890369ec38587e56fd31f4475a2f924c90334eeb5e9d580d");
    (70, "b35c6b0d9a80343096ebde83ca359ff6cb754c0089bb37f6a40dfafc4e7f478c");
    (71, "7186ae92a48757251662c6065506271e2c6022c9278312ba3db8e5d7b3ba9e5f");
    (72, "551754aabf41f35fc0fd5ded85fea4285f88be07bf4c2b178116e46fbc947df8");
    (73, "76e4fbddf5e76a366abc13bde55e5bf36e449b6e09a300fe7d1ddaa9b647be25");
    (74, "5da65ecc333f1a149509ee9d161e1cdd2aa7560dacd5f34ada55a084253a88aa");
    (75, "f4f4096f375f49b3e531f74698d81560b98cc284deca560eadd757d0bb930f60");
    (76, "5bfeb21f597a5de3dd57a134e9dd4751ba4dff9872a53a2b44e46cd8cbcf4e99");
    (77, "ae6e22df310b6bca2a54f9a4caca838879303039c9c9abb4bd3a129f89439c58");
    (78, "9d22355efd9974d2c23a0cfa1e831c0129a2fa4c20238899ba420117bc6e319e");
    (79, "843789a00ba2991ed34be64e096e1b0b0684626bfb16a83808a8775fffce7d99");
    (80, "bd7d9c12d1da9bdef62248cbd8c9e2abd564931d63e9dff0a171d94af452d348");
    (81, "a2fc7b434eab0bfe6ad706643b6c8884863fccdba28f9f5733f123f3e7c1be52");
    (82, "87f1be29ec2b8c46775ec804a1374ddf58ecefdf02178ee682a991d24a99e384");
    (83, "5acdf1a00ddb29a287cf866186c3bb2f2db56ac5f7250655d9ca679bcc43e688");
    (84, "759596380886e63d9d84f7755a8965e0c81665d9237936cb5a8f39df3fe3c7f2");
    (85, "2419de32f8cb490b38501fceeee0c9ea35570657f317f0c2a7abbeb904c76372");
    (86, "7881feb88116bdfca2ccbe01460d96bbc971ee0636d5e4dce3a5b2d39828ef40");
    (87, "c19b99f1be741f545cc7e9fb81fc3aadfb90783830dd8e6e9352fedd446f72d9");
    (88, "28914a4933206996a146ea4b24e31f1d2728fa337002b6558864d83827f93842");
    (89, "b4d496821dae0cf5c19ca82443b8947efeb061d959c45d1394ac899870004b78");
    (90, "f7b02abff22ed35147ca7a4657b281c45560d51eb8dc76153eb62f228f86b2ed");
    (91, "b2753086abff9ef5139a7ac54a1e380d3d32a5629bc2a8bf07e5b97cc80259dc");
    (92, "9c996af3a95adfacebcccbc7cf8f40ba687317cf093296992a54aa23eafec34c");
    (93, "d4c801e79f8232faad08f642d76cd2d9c36db9ebce39b876c6a455b171876611");
    (94, "782469ba5aec6b8d8dd24a202ecf928bbdb9e2ff1985b6616a96d958c8b2717f");
    (95, "70e65084780741d271f3e0915660162718ed389d2ec4007ebc68301f11cb2208");
    (96, "3253ea2391d3c3695658fe79d31a9933442e6988a496e71e017cb160c192c925");
    (97, "42e5c47060866cd2cc2c44395b05c3409f5f6b5b1c43288182fa721f05ce2e65");
    (98, "fd56c9020640e7dac56e94434fc5dbed815f641ff0902e76016bf9f3d14c6c27");
    (99, "e4f56881fa130fccfa0f1d404b350455097c23ce40faf592c4eda88c5bc72d0d");
    (100, "f227a3d7144103a8533f595c24c034014ea8334258f69f729c1b8650a60d63e9");
    (101, "30e85e43488e3bbb7299bc2d97e451e13d99d8b9effbab75525f3dc2e20f8836");
    (102, "01b980717a9a83344fc334e53ef316f327d7ed4510ad158e57693ffd44e0ff07");
    (103, "828dfa0cfc2fbabc90634a349362a8c4f0a1163da560fe2e5d155b6cf461bdb5");
    (104, "e01368581056e1250cfe128de2582742ad83b92921798e1de9d0467696c3b231");
    (105, "bbfbd4e16a7d677db0ade44d179c2fbc03cb98506608223460a9328b56e4b1dc");
    (106, "4c0f02ddeda796f0ebd9413bf9526830317b734cfc5eeded0f080d2cfbd729fa");
    (107, "c1a4b9571c7a9489e9cf550b12720abcbbfbf2ba61e6f4bc0c7340563f6a389a");
    (108, "04ec360b079e62a5078fd39e235b20b91cc49e7575d1704fb34e85d987bc7d2f");
    (109, "1ffa1fd6cbce80cb95343fc77f8687fc5ea6d7467b1c57d37f7c0745e53adfe0");
    (110, "771eba0490696c1b40005c4e288c8c60c032d3b0e105795eb56208540cede6b7");
    (111, "c49e87f4dbda5512feaf56f1ab3b2813a1e950f48726564d5290c0c72e4947c5");
    (112, "1fd5f1e32d3e8fff16bdf575939f903fc52804002253a36f28058cadc491cc40");
    (113, "b82f588a618015edb5d6dc865a44b704ba88cfb8e474a8800d78ee21830601a8");
    (114, "24b616cc0168d1165cdf7ed4bf460fc4f084a9ecf354e7bff99ab520bf9cc86c");
    (115, "8812a75f7265fc91c5072328f89cd51f864cafe563ba81188e0bb0d07dd5a86f");
    (116, "2d036aba3a684d53f1e118d01e95603d66683409900d58156f6c9aeaa6b1714e");
    (117, "37445095b71417a8920323ffd5edc09b233b8e590fc8718e08a329bd081291ec");
    (118, "8d560b574aa3ff9a38ed998efb613a5e225600a8e20088f3c525ca577f032405");
    (119, "6cf3e40eee6bd154b923dbbe0b421de7934af82282113dd285bb895e4bb3f8f7");
    (120, "696e486e83239a511feef5f0b438da322fa51490489668162c6ed9a9c6ad8055");
    (121, "27cef39e0f86d316cabb5a050293f1016a46f9d3a16c2f42f54103a2efa0a4a1");
    (122, "369056660414415160b17451bfd15240d298bf62088b86f92520ff4b58770772");
    (123, "862aca74e77c417cccb18a313f6f98b583c96054432164c6baf43204024f8e2c");
    (124, "e36224c140ca3fe310c69cef72e4ae0f3c5dae4c7d694b250ca2f9a870f4772e");
    (125, "3a4577ea587ed55ed4d098300f6d6d93dd252cf0a47b9cdc2d85ba46d2f6cdce");
    (126, "98ab23c399addd8dc2d49c95b6dab7d219c7181a6969ef1630f34420d542479d");
    (127, "2bcc276222962a8489f66518df75ceb051de1e5fcf9cec388ced69ef82dcbe12");
    (128, "3b35116c160c0ffdaf1287960af39caf2760811b02a36e3bd5294bdd61eea9a9");
    (129, "2f8375e93af8ad9fa693f5f28f1f0d218678da7fb5554be6431c2f3ee245eccb");
    (130, "bc4914958d557f459f021ee6e4e1c3195d97368f91052bdab54edadae4030ba7");
    (1000, "44a1b8c5e1f8849fc62fcbfadd4f4ab312021e40f8e16b2a4f9307493ca45102");
    ( 1_048_579,
      "54100bd2c3b5a46b0f408bf0b5eaad076c836e0330bf77547cbe15942f6b6f11" );
  ]

let patterned n = String.init n (fun i -> Char.chr (((31 * i) + n) land 0xff))

let test_sha256_patterned () =
  List.iter
    (fun (n, want) ->
      check Alcotest.string
        (Printf.sprintf "%d bytes" n)
        want
        (Sha256.hex (patterned n)))
    sha256sum_oracle

(* --- HMAC RFC 4231 vectors --- *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Test_pcb_codec.hex (Hmac.mac ~key:(Hmac.prepare key) "Hi There"))

let test_hmac_rfc4231_case2 () =
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Test_pcb_codec.hex
       (Hmac.mac ~key:(Hmac.prepare "Jefe") "what do ya want for nothing?"))

let test_hmac_rfc4231_case6_long_key () =
  let key = String.make 131 '\xaa' in
  check Alcotest.string "case 6 (key > block size)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Test_pcb_codec.hex
       (Hmac.mac ~key:(Hmac.prepare key)
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_truncated () =
  let key = Hmac.prepare "k" in
  let tag = Hmac.truncated ~key ~length:6 "msg" in
  check Alcotest.int "6 bytes" 6 (String.length tag);
  check Alcotest.string "is a prefix" (String.sub (Hmac.mac ~key "msg") 0 6) tag

let test_hmac_truncated_invalid () =
  Alcotest.check_raises "length 0" (Invalid_argument "Hmac.truncated: length outside [1, 32]")
    (fun () -> ignore (Hmac.truncated ~key:(Hmac.prepare "k") ~length:0 "m"))

let test_hmac_verify () =
  let key = Hmac.prepare "secret" in
  let tag = Hmac.truncated ~key ~length:6 "payload" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~tag "payload");
  Alcotest.(check bool) "rejects wrong payload" false
    (Hmac.verify ~key ~tag "other");
  Alcotest.(check bool) "rejects wrong key" false
    (Hmac.verify ~key:(Hmac.prepare "x") ~tag "payload");
  Alcotest.(check bool) "rejects empty tag" false
    (Hmac.verify ~key ~tag:"" "payload")

let prop_hmac_verify_roundtrip =
  QCheck.Test.make ~name:"verify accepts every generated mac" ~count:100
    QCheck.(pair string string)
    (fun (key, msg) ->
      let key = Hmac.prepare key in
      let tag = Hmac.mac ~key msg in
      Hmac.verify ~key ~tag msg)

(* The precomputed-pad MAC against HMAC written out from RFC 2104 with
   two one-shot digests. Keys run past the 64-byte block (hashed
   first); inner messages of 55, 56, 63, 64, 119 and 120 bytes put the
   inner hash's padding on either side of a block boundary. *)
let textbook_hmac key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let k0 = key ^ String.make (64 - String.length key) '\000' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) k0 in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

let prop_hmac_prepared_key =
  let gen =
    QCheck.Gen.(
      let bytes n = string_size ~gen:char (return n) in
      pair
        (int_bound 130 >>= bytes)
        (oneof
           [ oneofl [ 55; 56; 63; 64; 119; 120 ]; int_bound 200 ] >>= bytes))
  in
  let print (k, m) =
    Printf.sprintf "key %d bytes %S, msg %d bytes %S" (String.length k) k
      (String.length m) m
  in
  QCheck.Test.make ~name:"hmac prepared key" ~count:300 (QCheck.make ~print gen)
    (fun (key, msg) ->
      Hmac.mac ~key:(Hmac.prepare key) msg = textbook_hmac key msg)

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
    ("sha256 patterned inputs vs sha256sum", `Quick, test_sha256_patterned);
    ("hmac rfc4231 case 1", `Quick, test_hmac_rfc4231_case1);
    ("hmac rfc4231 case 2", `Quick, test_hmac_rfc4231_case2);
    ("hmac rfc4231 case 6", `Quick, test_hmac_rfc4231_case6_long_key);
    ("hmac truncated", `Quick, test_hmac_truncated);
    ("hmac truncated invalid", `Quick, test_hmac_truncated_invalid);
    ("hmac verify", `Quick, test_hmac_verify);
    QCheck_alcotest.to_alcotest prop_hmac_verify_roundtrip;
    QCheck_alcotest.to_alcotest prop_hmac_prepared_key;
    ("signature sizes", `Quick, test_signature_sizes);
    ("signature roundtrip", `Quick, test_signature_roundtrip);
    ("signature duplicate id", `Quick, test_signature_duplicate_id);
    ("signature cross key", `Quick, test_signature_cross_key);
    ("trc basic", `Quick, test_trc_basic);
    ("trc non-root issuer", `Quick, test_trc_non_root_issuer);
    ("trc empty roots", `Quick, test_trc_empty_roots);
  ]


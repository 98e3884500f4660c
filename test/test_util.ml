(* Tests for scion_util: RNG, heap, Zipf, stats, bitset, table. *)

let check = Alcotest.check

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 21L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 2.0 >= 0.0)
  done

let test_rng_pareto_min () =
  let rng = Rng.create 23L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "at least x_min" true
      (Rng.pareto rng ~alpha:1.5 ~x_min:2.0 >= 2.0)
  done

(* --- Heap --- *)

(* Push every element, then pop until empty. *)
let heap_sort l =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) l;
  let out = ref [] in
  while not (Heap.is_empty h) do
    out := Heap.pop_exn h :: !out
  done;
  List.rev !out

let test_heap_sorted_drain () =
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (heap_sort [ 5; 1; 4; 1; 3; 9; 2 ])

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun l -> heap_sort l = List.sort compare l)

(* --- Zipf --- *)

let test_zipf_sample_bounds () =
  let z = Zipf.create ~n:10 ~s:1.2 in
  let rng = Rng.create 31L in
  for _ = 1 to 500 do
    let k = Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10)
  done

let test_zipf_head_heavy () =
  let z = Zipf.create ~n:1000 ~s:1.2 in
  let rng = Rng.create 33L in
  let head = ref 0 in
  for _ = 1 to 2000 do
    if Zipf.sample z rng < 10 then incr head
  done;
  Alcotest.(check bool) "top-10 ranks dominate" true (!head > 600)

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.0))

(* Distribution check: whatever the seed, the empirical rank
   frequencies of a large sample track the rank-frequency law the
   sampler claims to draw from. 20k draws put the standard error of a
   rank-k frequency below ~0.4%, so a 2% absolute tolerance on the
   heavy head and on the aggregated tail is a real test of the
   inverse-CDF tables, not of the noise. *)
let prop_zipf_matches_law =
  QCheck.Test.make ~name:"zipf samples follow the rank-frequency law" ~count:20
    QCheck.(map Int64.of_int int)
    (fun seed ->
      let n = 50 and s = 1.2 and draws = 20_000 in
      let z = Zipf.create ~n ~s in
      let rng = Rng.create seed in
      let hits = Array.make n 0 in
      for _ = 1 to draws do
        let k = Zipf.sample z rng in
        hits.(k) <- hits.(k) + 1
      done;
      let freq k = float_of_int hits.(k) /. float_of_int draws in
      (* The law itself: P(rank k) = (k+1)^-s / sum_j (j+1)^-s. *)
      let norm = ref 0.0 in
      for j = 0 to n - 1 do
        norm := !norm +. (float_of_int (j + 1) ** -.s)
      done;
      let law k = (float_of_int (k + 1) ** -.s) /. !norm in
      let head_ok = ref true in
      for k = 0 to 9 do
        if abs_float (freq k -. law k) > 0.02 then head_ok := false
      done;
      let tail_freq = ref 0.0 and tail_weight = ref 0.0 in
      for k = 10 to n - 1 do
        tail_freq := !tail_freq +. freq k;
        tail_weight := !tail_weight +. law k
      done;
      !head_ok && abs_float (!tail_freq -. !tail_weight) < 0.02)

(* --- Stats --- *)

let feq msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_stats_mean () = feq "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_mean_empty () = feq "empty mean" 0.0 (Stats.mean [||])

let test_stats_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  feq "median" 3.0 (Stats.median xs);
  feq "min" 1.0 (Stats.quantile xs 0.0);
  feq "max" 5.0 (Stats.quantile xs 1.0);
  feq "interp" 1.5 (Stats.quantile xs 0.125)

let test_stats_quantile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample")
    (fun () -> ignore (Stats.quantile [||] 0.5))

let test_stats_cdf () =
  (* Hand-counted on [1; 1; 2; 3]: values tied with the threshold count,
     values above it do not. *)
  let xs = [| 1; 1; 2; 3 |] in
  feq "at 1 (ties count)" 0.5 (Stats.fraction_le xs 1);
  feq "at 2 (3 is above)" 0.75 (Stats.fraction_le xs 2);
  feq "below all" 0.0 (Stats.fraction_le xs 0);
  feq "above all" 1.0 (Stats.fraction_le xs 10);
  feq "empty sample" 0.0 (Stats.fraction_le [||] 5)

let test_stats_five_number () =
  let f = Stats.five_number [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  feq "p25" 2.0 f.Stats.p25;
  feq "p75" 4.0 f.Stats.p75

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range (-100.) 100.)) (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (l, (q1, q2)) ->
      let xs = Array.of_list l in
      let lo = min q1 q2 and hi = max q1 q2 in
      Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-9)

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  check Alcotest.int "cardinal" 3 (Bitset.cardinal b);
  check (Alcotest.list Alcotest.int) "to_list" [ 0; 63; 99 ] (Bitset.to_list b)

let test_bitset_union () =
  let a = Bitset.create 10 and b = Bitset.create 10 in
  Bitset.add a 1;
  Bitset.add b 2;
  Bitset.union_into ~dst:a b;
  check (Alcotest.list Alcotest.int) "union" [ 1; 2 ] (Bitset.to_list a)

let test_bitset_out_of_range () =
  let b = Bitset.create 5 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b 5)

let prop_bitset_like_set =
  QCheck.Test.make ~name:"bitset agrees with list-set semantics" ~count:200
    QCheck.(list (int_bound 63))
    (fun l ->
      let b = Bitset.create 64 in
      List.iter (Bitset.add b) l;
      Bitset.to_list b = List.sort_uniq compare l)

(* --- Table --- *)

let test_stats_summary_string () =
  Alcotest.(check bool) "mentions median" true
    (String.length (Stats.summary [| 1.0; 2.0; 3.0 |]) > 10);
  check Alcotest.string "empty" "(empty)" (Stats.summary [||])

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' (String.trim s) in
  check Alcotest.int "line count" 4 (List.length lines);
  Alcotest.(check bool) "pads short rows" true
    (List.exists (fun l -> String.trim l = "333") lines)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng exponential positive", `Quick, test_rng_exponential_positive);
    ("rng pareto min", `Quick, test_rng_pareto_min);
    ("heap sorted drain", `Quick, test_heap_sorted_drain);
    ("heap empty", `Quick, test_heap_empty);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    ("zipf sample bounds", `Quick, test_zipf_sample_bounds);
    ("zipf head heavy", `Quick, test_zipf_head_heavy);
    ("zipf invalid", `Quick, test_zipf_invalid);
    QCheck_alcotest.to_alcotest prop_zipf_matches_law;
    ("stats mean", `Quick, test_stats_mean);
    ("stats mean empty", `Quick, test_stats_mean_empty);
    ("stats quantiles", `Quick, test_stats_quantiles);
    ("stats quantile invalid", `Quick, test_stats_quantile_invalid);
    ("stats cdf", `Quick, test_stats_cdf);
    ("stats five number", `Quick, test_stats_five_number);
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    ("bitset basic", `Quick, test_bitset_basic);
    ("bitset union", `Quick, test_bitset_union);
    ("bitset out of range", `Quick, test_bitset_out_of_range);
    QCheck_alcotest.to_alcotest prop_bitset_like_set;
    ("stats summary string", `Quick, test_stats_summary_string);
    ("table render", `Quick, test_table_render);
  ]

(* SHA-256 digests of each workload's deterministic outputs at seed 0
   (the scenarios' own inputs), recorded from the code the benchmark was
   written against. A digest mismatch is a failed check. Changing a
   workload's size in work.ml changes its digest. *)

(* Fig. 5 series ratios plus per-run PCB and byte totals. *)
let fig5 = "3c69387251e20b17d41d3d5013ff35c27ac38fb2902ca3e3af93b95d45c1cccc"

(* Per trial: SHA-256 of the final Soak.encode plus the Soak.report fields. *)
let soak = "3725904b06bbf781a845e803557b82cd9b0b55a348cb195c65436e59ed77c6a1"

(* Per cell: SHA-256 of the final Traffic_sim.encode plus the report fields. *)
let traffic = "338e0dee846e879562f57cf6ede68bf8d3e93453c7f995fc9119181f1ed7cd06"

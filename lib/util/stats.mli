(** Descriptive statistics and CDF reporting for the evaluation figures. *)

val mean : float array -> float
(** Arithmetic mean; 0. on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0,1\]]: linear-interpolation quantile
    of the (unsorted) sample. Raises [Invalid_argument] on an empty
    array or [q] outside [\[0,1\]]. *)

val median : float array -> float
(** [quantile xs 0.5]. *)

val fraction_le : int array -> int -> float
(** [fraction_le xs c] is the fraction of the sample [<= c] (the
    empirical CDF at [c]); 0. on an empty array. *)

val summary : float array -> string
(** One-line [min/p25/median/p75/max mean] summary used in reports. *)

type five_number = {
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
  mean : float;
}

val five_number : float array -> five_number
(** Five-number summary plus mean. Raises [Invalid_argument] if empty. *)

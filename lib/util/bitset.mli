(** Fixed-capacity bitsets, used for customer-cone computation over the
    provider–customer DAG. *)

type t

val create : int -> t
(** [create n] is an empty set over universe [\[0, n)]. *)

val add : t -> int -> unit
(** Add an element (no-op if present). Raises [Invalid_argument] when
    the element is outside [\[0, n)]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. Capacities must
    match. *)

val cardinal : t -> int
(** Number of elements in the set (population count). *)

val to_list : t -> int list
(** Members in increasing order. *)

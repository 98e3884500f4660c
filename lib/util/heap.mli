(** Mutable binary min-heap, used by the event queue and by shortest-path
    computations. Elements are ordered by a user-supplied comparison. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap with ordering [cmp]. *)

val length : 'a t -> int
(** Number of stored elements, O(1). *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Insert an element, O(log n). Equal elements are allowed; their
    relative pop order is unspecified (callers needing stability must
    encode a tiebreak in [cmp], as the event queue does). *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element, or [None] if empty. *)

val pop_exn : 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)

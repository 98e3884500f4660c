(** Mutable per-AS state of the path-diversity-based algorithm (§4.2).

    Two data structures from the paper:

    - the {e Link History Table} per [(origin AS, neighbor AS)] pair,
      mapping link ids to the number of currently valid paths from the
      origin to the neighbor that traverse the link;
    - the {e Sent PCBs List}, remembering for each disseminated path
      its diversity score at send time and the expiry of the instance
      last sent. It is keyed by the {e parent} path key first: the
      [Pcb.key] of the stored PCB before the egress link is appended.
      Under one parent key sits one entry per egress link the path was
      sent on, so (parent key, egress) and disseminated paths
      correspond one to one. One lookup per stored path ({!sent_row})
      serves all the parallel egress links of an evaluation.

    Plus one engineering addition: per-pair evaluation gating, so the
    beacon server skips (origin, neighbor) pairs whose inputs cannot
    have changed since the last evaluation (no new stored paths, no
    sent instance near expiry). This does not alter selections, only
    when they are recomputed.

    [Beacon_policy.evaluate] drives all of this per evaluation; the
    beaconing engine only creates one state per AS and {!prune}s it. *)

type sent_info = {
  ds : float;  (** diversity score recorded at first dissemination *)
  mutable sent_expires_at : float;  (** expiry of the last sent instance *)
  origin : int;
  neighbor : int;
  egress : int;  (** the egress link the path was sent on *)
  links : int array;  (** full path including the egress link *)
}

val no_sent : sent_info
(** The shared "no entry" sentinel: it has expired at every time, so a
    combination holding it is scored as never sent. Compare with [==]. *)

type t

val create : n_as:int -> t
(** [n_as] bounds the (origin, neighbor) pair key space. *)

val counters_gm : t -> origin:int -> neighbor:int -> links:int array -> extra:int -> float
(** Geometric mean of [(1 + counter)] over [links] plus the [extra]
    egress link, against the pair's Link History Table. *)

val increment : t -> origin:int -> neighbor:int -> links:int array -> extra:int -> unit
(** Count a newly disseminated path on every traversed link. *)

(** {2 Dense counter view}

    One (origin, neighbor) evaluation ([Beacon_policy.evaluate], the
    view's one consumer) reads the pair's counters for every
    combination it scores. The view serves those reads from an
    [int array] indexed by link id instead of the hash table. Contract:

    - between evaluations every entry is 0;
    - {!load_view} copies one pair's Link History Table into the view;
      from then until {!unload_view} for the same pair, entry [l] is the
      pair's counter for link [l], provided every change to the pair's
      counters goes through {!view_increment} ({!prune} runs only
      between evaluations);
    - {!view_sum_into} and {!view_logs_into} read the loaded pair: the
      pair's {!counters_gm} over [links] plus [extra] is
      [exp ((sum +. log_extra) /. float (Array.length links + 1))]
      bit for bit, where [sum] is what {!view_sum_into} writes for
      [links] and [log_extra] what {!view_logs_into} writes for
      [[| extra |]];
    - {!unload_view} zeroes every entry again.

    The Link History Table stays the source of truth. *)

type view

val create_view : num_links:int -> view
(** An all-zero view for link ids [0 .. num_links - 1]; one per engine. *)

val load_view : view -> t -> origin:int -> neighbor:int -> unit

val view_increment :
  view -> t -> origin:int -> neighbor:int -> links:int array -> extra:int -> unit
(** {!increment} the loaded pair and its view entries alike. *)

val view_sum_into : view -> links:int array -> float array -> int -> unit
(** [view_sum_into v ~links dst i] sets [dst.(i)] to the sum of
    [log (1 + counter)] over [links], added in {!counters_gm}'s order. *)

val view_logs_into : view -> links:int array -> len:int -> float array -> unit
(** [view_logs_into v ~links ~len dst] sets [dst.(j)] to
    [log (1 + counter)] of link [links.(j)], for [j < len]. *)

val unload_view : view -> t -> origin:int -> neighbor:int -> unit

val view_is_clear : view -> bool
(** Every entry is 0 (for tests). *)

(** {2 Sent PCBs List} *)

type sent_row
(** The entries under one parent path key, one per egress link. *)

val sent_row : t -> key:string -> sent_row
(** The entries of the parent path [key] (the stored PCB's [Pcb.key]);
    empty when none was sent. *)

val sent_on : sent_row -> egress:int -> sent_info
(** The entry of the path sent on [egress], or {!no_sent}. *)

val record_sent :
  t ->
  origin:int ->
  neighbor:int ->
  egress:int ->
  key:string ->
  links:int array ->
  ds:float ->
  expires_at:float ->
  sent_info
(** Insert a fresh entry (first dissemination of this path on this
    interface) under the parent path [key] and return it. An entry
    already on [egress] is replaced without decrementing its counters.
    [links] is the full path including the egress link. *)

val refresh_sent : sent_info -> expires_at:float -> unit
(** A path was re-sent: only its timers are updated (§4.2). *)

val should_evaluate :
  t -> origin:int -> neighbor:int -> store_last_mod:float -> now:float -> bool
(** Gating: evaluate if the store changed since the last evaluation or
    the pair's scheduled re-evaluation time has been reached. *)

val begin_evaluation : t -> origin:int -> neighbor:int -> now:float -> unit
(** Record the evaluation and clear the scheduled re-evaluation time
    (to be re-proposed from the scan's crossing-time predictions). *)

val propose_next_eval : t -> origin:int -> neighbor:int -> float -> unit
(** Lower the pair's scheduled re-evaluation time. *)

val prune : t -> now:float -> unit
(** Drop expired Sent-PCBs-List entries and decrement the link history
    counters of their paths, so counters keep reflecting {e valid}
    paths only. *)

val sent_count : t -> int
(** Total live Sent-PCBs-List entries (for tests and introspection). *)

(** Mutable per-AS state of the path-diversity-based algorithm (§4.2).

    Two data structures from the paper:

    - the {e Link History Table} per [(origin AS, neighbor AS)] pair,
      mapping link ids to the number of currently valid paths from the
      origin to the neighbor that traverse the link;
    - the {e Sent PCBs List} per egress interface, remembering for each
      disseminated path its diversity score at send time and the expiry
      of the instance last sent. Within one egress's list a path is
      keyed by its {e parent} path key: the [Pcb.key] of the stored PCB
      before the egress link is appended. The egress fixes the appended
      link, so parent keys and disseminated paths correspond one to
      one.

    Plus one engineering addition: per-pair evaluation gating, so the
    beacon server skips (origin, neighbor) pairs whose inputs cannot
    have changed since the last evaluation (no new stored paths, no
    sent instance near expiry). This does not alter selections, only
    when they are recomputed. *)

type sent_info = {
  ds : float;  (** diversity score recorded at first dissemination *)
  mutable sent_expires_at : float;  (** expiry of the last sent instance *)
  origin : int;
  neighbor : int;
  links : int array;  (** full path including the egress link *)
}

type t

val create : n_as:int -> t
(** [n_as] bounds the (origin, neighbor) pair key space. *)

val counters_gm : t -> origin:int -> neighbor:int -> links:int array -> extra:int -> float
(** Geometric mean of [(1 + counter)] over [links] plus the [extra]
    egress link, against the pair's Link History Table. *)

val increment : t -> origin:int -> neighbor:int -> links:int array -> extra:int -> unit
(** Count a newly disseminated path on every traversed link. *)

(** {2 Dense counter view}

    One (origin, neighbor) evaluation reads the pair's counters for
    every combination it scores. The view serves those reads from an
    [int array] indexed by link id instead of the hash table. Contract:

    - between evaluations every entry is 0;
    - {!load_view} copies one pair's Link History Table into the view;
      from then until {!unload_view} for the same pair, entry [l] is the
      pair's counter for link [l], provided every change to the pair's
      counters goes through {!view_increment} ({!prune} runs only
      between evaluations);
    - {!view_mean} equals {!counters_gm} on the loaded pair bit for
      bit;
    - {!unload_view} zeroes every entry again.

    The Link History Table stays the source of truth. *)

type view

val create_view : num_links:int -> view
(** An all-zero view for link ids [0 .. num_links - 1]; one per engine. *)

val load_view : view -> t -> origin:int -> neighbor:int -> unit

val view_increment :
  view -> t -> origin:int -> neighbor:int -> links:int array -> extra:int -> unit
(** {!increment} the loaded pair and its view entries alike. *)

val view_mean : view -> links:int array -> extra:int -> float
(** {!counters_gm} of the loaded pair, read from the view. *)

val unload_view : view -> t -> origin:int -> neighbor:int -> unit

val view_is_clear : view -> bool
(** Every entry is 0 (for tests). *)

(** {2 Sent PCBs List} *)

val find_sent : t -> egress:int -> key:string -> sent_info option
(** The entry of the path [key ^ egress], where [key] is the parent path
    key (the stored PCB's [Pcb.key]). *)

val record_sent :
  t ->
  origin:int ->
  neighbor:int ->
  egress:int ->
  key:string ->
  links:int array ->
  ds:float ->
  expires_at:float ->
  unit
(** Insert a fresh Sent-PCBs-List entry (first dissemination of this
    path on this interface), under the parent path [key] as in
    {!find_sent}. [links] is the full path including the egress link. *)

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

(** SCIONLab-like research-testbed topology (§5.4, Appendix B).

    The paper evaluates the control plane on the SCIONLab testbed: 21
    core ASes whose core graph is sparse ("on average, a core AS has 2
    neighbors"). We generate a ring of the 21 core ASes with a small
    number of chords, which matches that average degree, plus optional
    non-core attachment ASes. *)

type params = {
  n_core : int;  (** 21 in SCIONLab *)
  chords : int;  (** extra core links beyond the ring *)
  attachments_per_core : int;  (** user ASes attached below each core AS *)
}

val default_params : params
(** 21 core ASes, 2 chords, no attachment ASes. Every topology is drawn
    from one fixed seed, so equal params give equal graphs. *)

val generate : params -> Graph.t
(** Core links form a ring plus [chords] random chords, with 2 randomly
    chosen ring edges doubled (parallel links exist in the testbed and
    drive the 3+ region of Figs. 7–8); attachment ASes hang off core
    ASes with provider–customer links. *)

(** The path-quality sweep of Figs. 6–8 (§5.3, Appendix B): per AS
    pair, the max-flow of the paths each column keeps, against the
    optimum over the whole topology ({!Path_quality}).

    Fig. 6 runs it on the core topology and SCIONLab on the testbed
    topology; both render their CDFs with {!print_cdf}. *)

type source =
  | Bgp  (** every shortest AS path, all parallel links (§5.3 best case) *)
  | Scion of Variant.t  (** one beaconing run of the variant *)

type column = {
  source : source;
  name : string;  (** ["BGP"] or ["SCION "] followed by {!Variant.name} *)
  flows : int array;  (** per pair *)
  iface_bps : float array;
      (** Fig. 9: sent Bps of every eligible directed interface over
          the beaconing run; empty for [Bgp] *)
}

type t = { optimum : int array; columns : column list }

val run :
  ?obs:Obs.t ->
  ?jobs:int ->
  scenario:string ->
  Graph.t ->
  Beaconing.config ->
  (int * int) array ->
  source list ->
  t
(** [run ~scenario g base pairs sources] computes the optimum and one
    column per source, in order, as one job each on [jobs] domains;
    each [Scion v] beacons over [Variant.config base v]. The
    result is identical at every [jobs] value. With an enabled [obs]
    (default {!Obs.disabled}) the beaconing runs are instrumented and
    the jobs timed as the [<scenario>.optimum_cuts],
    [<scenario>.bgp_flows] and {!Variant.phase} phases. *)

val print_cdf : label:string -> caps:int list -> optimum:int array -> column list -> unit
(** One row per cap [c]: the fraction of pairs whose flow is at most
    [c], per column and then for the optimum ("All Paths (optimum)"). *)

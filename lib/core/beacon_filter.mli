(** AS-local beaconing policies (§2.2).

    "The beacon server decides which PCBs to propagate on which
    interfaces based on AS-local policies." A policy is a list of
    rules evaluated against a candidate PCB before the selection
    algorithm sees it; any matching deny rule drops the candidate.
    Policies never affect other ASes' decisions — exactly the local
    autonomy the control plane is designed around. *)

type rule =
  | Deny_as of int  (** drop PCBs whose path contains the AS *)
  | Deny_isd of int  (** drop PCBs touching any AS of the ISD
                         (geofencing at dissemination time, §3.1) *)
  | Deny_link of int  (** drop PCBs traversing a specific link *)
  | Max_hops of int  (** drop paths longer than this many AS entries *)
  | Deny_origin of int  (** do not propagate this origin's PCBs at all *)

type t = rule list

val allows : Graph.t -> t -> Pcb.t -> bool
(** [true] when no rule rejects the PCB. The empty policy allows
    everything. *)

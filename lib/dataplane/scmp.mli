(** SCION Control Message Protocol messages (§4.1).

    A border router observing a failed link notifies affected sources
    with an SCMP message; endpoints immediately switch to an alternate
    path not containing the failed link. A link-failure notification
    doubles as a path revocation: it names the failed link by its
    interface pair and carries an expiry after which the revocation
    lapses and the link may be used again (§4.1, "Path Revocations"). *)

type message = {
  kind : kind;
  origin_as : int;  (** AS of the reporting border router *)
  at : float;
}

and kind =
  | Link_failure of {
      link : int;  (** failed link id *)
      if_a : Id.iface;  (** interface on the link's [a] endpoint *)
      if_b : Id.iface;  (** interface on the link's [b] endpoint *)
      expiry : float;  (** revocation expiry (absolute time) *)
    }
  | Path_expired
  | Destination_unreachable

val link_failure : Graph.link -> origin_as:int -> now:float -> message
(** The notification a border router in [origin_as] sends when it
    finds the link down at [now]: the link's interface pair and a
    revocation expiring 600 s (one beaconing interval) later, after
    which the link may be retried. *)

val wire_bytes : message -> int
(** On-the-wire size of the message: the fixed 16-byte header
    (type/code/checksum plus the SCION address header) and the 64-byte
    quote of the offending packet, plus a kind-dependent payload — a
    link-failure notification additionally carries the link id, its
    interface pair and the revocation expiry; a path-expired
    notification carries the expired hop's timestamp;
    destination-unreachable carries nothing beyond the quote. *)

(** Trust Root Configuration (TRC) and AS certificates (§2.1).

    Each ISD groups ASes that agree on a set of trust roots — the
    signing keys of the ISD's core ASes. Core ASes issue certificates
    to member ASes; PCB signatures verify through this chain. The model
    captures exactly the structure the control plane needs: root-key
    membership, certificate issuance, and chain verification. *)

type t
(** A TRC: the set of trust-root key ids of one ISD. *)

type cert = {
  subject : string;  (** key id of the certified AS *)
  issuer : string;  (** key id of the issuing core AS *)
  signature : string;  (** issuer's signature over the subject id *)
}

val create : roots:string list -> t
(** [create ~roots] builds a TRC whose trust roots are the given key
    ids. Raises [Invalid_argument] if [roots] is empty. *)

val issue : Signature.keypair -> subject:string -> cert
(** [issue issuer_key ~subject] signs a certificate for [subject]. *)

val verify_cert : Signature.keystore -> t -> cert -> bool
(** A certificate is valid iff its issuer is a trust root of the TRC and
    the signature verifies against the issuer's registered key. *)

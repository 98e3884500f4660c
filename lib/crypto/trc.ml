type t = { roots : string list }

type cert = { subject : string; issuer : string; signature : string }

let create ~roots =
  if roots = [] then invalid_arg "Trc.create: a TRC needs at least one trust root";
  { roots }

let is_root t id = List.mem id t.roots

let cert_payload subject = "scion-cert:" ^ subject

let issue issuer_key ~subject =
  {
    subject;
    issuer = Signature.key_id issuer_key;
    signature = Signature.sign issuer_key (cert_payload subject);
  }

let verify_cert ks t cert =
  is_root t cert.issuer
  && Signature.verify ks ~id:cert.issuer ~msg:(cert_payload cert.subject)
       ~signature:cert.signature

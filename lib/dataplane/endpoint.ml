type t = {
  cs : Control_service.t;
  net : Forwarding.network;
  src : int;
  dst : int;
  mutable paths : Fwd_path.t list;
  mutable excluded_links : int list;
  mutable failover_count : int;
}

let resolve t = t.paths <- Control_service.resolve t.cs ~src:t.src ~dst:t.dst

let create cs net ~src ~dst =
  let t =
    {
      cs;
      net;
      src;
      dst;
      paths = [];
      excluded_links = [];
      failover_count = 0;
    }
  in
  resolve t;
  t

let usable t (p : Fwd_path.t) =
  not (List.exists (fun l -> Fwd_path.contains_link p l) t.excluded_links)

let available_paths t = List.filter (usable t) t.paths

let active_path t = match available_paths t with [] -> None | p :: _ -> Some p

let exclude_link t l =
  if not (List.mem l t.excluded_links) then t.excluded_links <- l :: t.excluded_links

let failovers t = t.failover_count

let send t ?(payload_bytes = 1000) ~now () =
  let rec attempt () =
    match active_path t with
    | None ->
        Forwarding.Dropped
          {
            at_as = t.src;
            reason = Forwarding.Link_down (-1);
            scmp =
              Some
                {
                  Scmp.kind = Scmp.Destination_unreachable;
                  origin_as = t.src;
                  at = now;
                };
          }
    | Some path -> (
        let pkt = Forwarding.packet path ~payload_bytes () in
        match Forwarding.forward t.net ~now pkt with
        | Forwarding.Dropped
            { scmp = Some { Scmp.kind = Scmp.Link_failure { link; _ }; _ }; _ } ->
            (* Fast failover: drop every path using the failed link and
               retry immediately (§4.1). *)
            exclude_link t link;
            t.failover_count <- t.failover_count + 1;
            attempt ()
        | other -> other)
  in
  attempt ()

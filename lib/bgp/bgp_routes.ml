type route_class = No_route | Self | Via_customer | Via_peer | Via_provider

type table = {
  dst : int;
  cls : route_class array;
  dist : int array;
  parent : int array;
}

(* Peering and core links are both lateral for routing purposes. *)
let lateral (h : Graph.half_link) =
  h.Graph.dir = Graph.To_peer || h.Graph.dir = Graph.To_core

let compute g ~dst =
  let n = Graph.n g in
  let cls = Array.make n No_route in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  cls.(dst) <- Self;
  dist.(dst) <- 0;
  (* Stage 1: customer routes climb provider links (BFS = shortest). *)
  let queue = Queue.create () in
  Queue.push dst queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun (h : Graph.half_link) ->
        (* u announces upward: the peer on u's To_provider link learns a
           customer route. *)
        if h.Graph.dir = Graph.To_provider && cls.(h.Graph.peer) = No_route then begin
          cls.(h.Graph.peer) <- Via_customer;
          dist.(h.Graph.peer) <- dist.(u) + 1;
          parent.(h.Graph.peer) <- u;
          Queue.push h.Graph.peer queue
        end)
      (Graph.adj g u)
  done;
  (* Stage 2: peer routes — one lateral hop from a customer/self route. *)
  let peer_updates = ref [] in
  for v = 0 to n - 1 do
    if cls.(v) = No_route then begin
      let best = ref None in
      Array.iter
        (fun (h : Graph.half_link) ->
          if lateral h then begin
            let u = h.Graph.peer in
            if cls.(u) = Self || cls.(u) = Via_customer then begin
              match !best with
              | Some (d, _) when d <= dist.(u) + 1 -> ()
              | _ -> best := Some (dist.(u) + 1, u)
            end
          end)
        (Graph.adj g v);
      match !best with
      | Some (d, u) -> peer_updates := (v, d, u) :: !peer_updates
      | None -> ()
    end
  done;
  List.iter
    (fun (v, d, u) ->
      cls.(v) <- Via_peer;
      dist.(v) <- d;
      parent.(v) <- u)
    !peer_updates;
  (* Stage 3: provider routes descend customer links from any routed AS
     (multi-source BFS ordered by current distance). *)
  let heap = Heap.create ~cmp:(fun (a : int * int) b -> compare a b) in
  for v = 0 to n - 1 do
    if cls.(v) <> No_route then Heap.push heap (dist.(v), v)
  done;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if d = dist.(u) then
          Array.iter
            (fun (h : Graph.half_link) ->
              if h.Graph.dir = Graph.To_customer then begin
                let c = h.Graph.peer in
                if cls.(c) = No_route then begin
                  cls.(c) <- Via_provider;
                  dist.(c) <- d + 1;
                  parent.(c) <- u;
                  Heap.push heap (d + 1, c)
                end
              end)
            (Graph.adj g u);
        drain ()
  in
  drain ();
  { dst; cls; dist; parent }

let path_to t ~src =
  if t.cls.(src) = No_route then None
  else begin
    let rec walk v acc guard =
      if guard > Array.length t.cls then None
      else if v = t.dst then Some (List.rev (v :: acc))
      else begin
        let p = t.parent.(v) in
        if p < 0 then None else walk p (v :: acc) (guard + 1)
      end
    in
    walk src [] 0
  end

let shortest_multipath g ~src ~dst =
  if src = dst then []
  else begin
    let n = Graph.n g in
    (* BFS from dst with src removed: the paths neighbors would
       advertise never contain src (loop prevention). *)
    let dist = Array.make n (-1) in
    dist.(dst) <- 0;
    dist.(src) <- -2;
    let queue = Queue.create () in
    Queue.push dst queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun (h : Graph.half_link) ->
          if dist.(h.Graph.peer) = -1 then begin
            dist.(h.Graph.peer) <- dist.(u) + 1;
            Queue.push h.Graph.peer queue
          end)
        (Graph.adj g u)
    done;
    let descend m =
      if dist.(m) < 0 then None
      else begin
        let rec walk v acc =
          if v = dst then Some (List.rev (v :: acc))
          else begin
            let next = ref (-1) in
            Array.iter
              (fun (h : Graph.half_link) ->
                if !next < 0 && dist.(h.Graph.peer) = dist.(v) - 1 then
                  next := h.Graph.peer)
              (Graph.adj g v);
            if !next < 0 then None else walk !next (v :: acc)
          end
        in
        walk m []
      end
    in
    (* BGP multipath requires equal AS-path length: only neighbors on a
       shortest path towards dst are usable next hops (ECMP). *)
    let best =
      List.fold_left
        (fun acc m -> if dist.(m) >= 0 then min acc (dist.(m) + 1) else acc)
        max_int (Graph.neighbors g src)
    in
    let paths = ref [] in
    List.iter
      (fun m ->
        if m = dst && best = 1 then begin
          if not (List.mem [ src; dst ] !paths) then paths := [ src; dst ] :: !paths
        end
        else if m <> dst && dist.(m) >= 0 && dist.(m) + 1 = best then begin
          match descend m with
          | Some p when not (List.mem p !paths) -> paths := (src :: p) :: !paths
          | _ -> ()
        end)
      (Graph.neighbors g src);
    !paths
  end

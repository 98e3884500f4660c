type relationship = Core | Provider_customer | Peering

type rel_from_self = To_provider | To_customer | To_peer | To_core

type link = {
  link_id : int;
  a : int;
  a_if : Id.iface;
  b : int;
  b_if : Id.iface;
  rel : relationship;
}

type half_link = {
  via : int;
  peer : int;
  local_if : Id.iface;
  remote_if : Id.iface;
  dir : rel_from_self;
}

type as_info = { ia : Id.ia; tier : int; cities : int array; core : bool }

type t = {
  ases : as_info array;
  links : link array;
  adjacency : half_link array array;
}

(* --- Builder --- *)

type builder = {
  mutable b_ases : as_info list; (* reversed *)
  mutable b_n : int;
  mutable b_links : (int * int * relationship) list; (* reversed, (a, b, rel) *)
  mutable b_nlinks : int;
  b_seen : (Id.ia, unit) Hashtbl.t;
}

let builder () =
  { b_ases = []; b_n = 0; b_links = []; b_nlinks = 0; b_seen = Hashtbl.create 64 }

let add_as b ?(tier = 3) ?(cities = [||]) ?(core = false) ia =
  if Hashtbl.mem b.b_seen ia then
    invalid_arg (Printf.sprintf "Graph.add_as: duplicate IA %s" (Id.ia_to_string ia));
  Hashtbl.replace b.b_seen ia ();
  let idx = b.b_n in
  b.b_ases <- { ia; tier; cities; core } :: b.b_ases;
  b.b_n <- idx + 1;
  idx

let add_link b ?(count = 1) ~rel x y =
  if x = y then invalid_arg "Graph.add_link: self-link";
  if x < 0 || x >= b.b_n || y < 0 || y >= b.b_n then
    invalid_arg "Graph.add_link: unknown AS index";
  if count < 1 then invalid_arg "Graph.add_link: count must be >= 1";
  for _ = 1 to count do
    b.b_links <- (x, y, rel) :: b.b_links;
    b.b_nlinks <- b.b_nlinks + 1
  done

let dir_of_endpoint rel ~is_a =
  match rel with
  | Core -> To_core
  | Peering -> To_peer
  | Provider_customer -> if is_a then To_customer else To_provider

let freeze b =
  let n = b.b_n in
  let ases = Array.of_list (List.rev b.b_ases) in
  let raw = Array.of_list (List.rev b.b_links) in
  let next_if = Array.make n 1 in
  let links =
    Array.mapi
      (fun link_id (x, y, rel) ->
        let a_if = next_if.(x) in
        next_if.(x) <- a_if + 1;
        let b_if = next_if.(y) in
        next_if.(y) <- b_if + 1;
        { link_id; a = x; a_if; b = y; b_if; rel })
      raw
  in
  let counts = Array.make n 0 in
  Array.iter
    (fun l ->
      counts.(l.a) <- counts.(l.a) + 1;
      counts.(l.b) <- counts.(l.b) + 1)
    links;
  let adjacency =
    Array.init n (fun v ->
        Array.make counts.(v)
          { via = -1; peer = -1; local_if = 0; remote_if = 0; dir = To_core })
  in
  let fill = Array.make n 0 in
  Array.iter
    (fun l ->
      let put v ~is_a =
        let peer, local_if, remote_if =
          if is_a then (l.b, l.a_if, l.b_if) else (l.a, l.b_if, l.a_if)
        in
        adjacency.(v).(fill.(v)) <-
          { via = l.link_id; peer; local_if; remote_if; dir = dir_of_endpoint l.rel ~is_a };
        fill.(v) <- fill.(v) + 1
      in
      put l.a ~is_a:true;
      put l.b ~is_a:false)
    links;
  { ases; links; adjacency }

(* --- Accessors --- *)

let n t = Array.length t.ases
let num_links t = Array.length t.links
let as_info t v = t.ases.(v)
let link t id = t.links.(id)
let adj t v = t.adjacency.(v)

let neighbors t v =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc h ->
      if Hashtbl.mem seen h.peer then acc
      else begin
        Hashtbl.replace seen h.peer ();
        h.peer :: acc
      end)
    [] t.adjacency.(v)
  |> List.rev

let link_degree t v = Array.length t.adjacency.(v)

let as_degree t v = List.length (neighbors t v)

let links_between t x y =
  Array.fold_left
    (fun acc h -> if h.peer = y then t.links.(h.via) :: acc else acc)
    [] t.adjacency.(x)
  |> List.rev

let by_dir t v want =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc h ->
      if h.dir = want && not (Hashtbl.mem seen h.peer) then begin
        Hashtbl.replace seen h.peer ();
        h.peer :: acc
      end
      else acc)
    [] t.adjacency.(v)
  |> List.rev

let customers t v = by_dir t v To_customer

let core_ases t =
  let acc = ref [] in
  for v = n t - 1 downto 0 do
    if t.ases.(v).core then acc := v :: !acc
  done;
  !acc

let is_core t v = t.ases.(v).core

let iface_of l v =
  if l.a = v then l.a_if
  else if l.b = v then l.b_if
  else invalid_arg "Graph.iface_of: AS is not an endpoint"

(* --- Derived structure --- *)

let connected_components t =
  let nn = n t in
  let comp = Array.make nn (-1) in
  let next = ref 0 in
  for v = 0 to nn - 1 do
    if comp.(v) = -1 then begin
      let c = !next in
      incr next;
      let stack = ref [ v ] in
      comp.(v) <- c;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            Array.iter
              (fun h ->
                if comp.(h.peer) = -1 then begin
                  comp.(h.peer) <- c;
                  stack := h.peer :: !stack
                end)
              t.adjacency.(u)
      done
    end
  done;
  let buckets = Array.make !next [] in
  for v = nn - 1 downto 0 do
    buckets.(comp.(v)) <- v :: buckets.(comp.(v))
  done;
  Array.to_list buckets
  |> List.sort (fun x y -> compare (List.length y) (List.length x))

let induced_subgraph ?(relabel_rel = fun r -> r) t keep =
  let keep = List.sort_uniq compare keep in
  let old_of_new = Array.of_list keep in
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun ni oi -> Hashtbl.replace new_of_old oi ni) old_of_new;
  let b = builder () in
  Array.iter
    (fun oi ->
      let info = t.ases.(oi) in
      ignore (add_as b ~tier:info.tier ~cities:info.cities ~core:info.core info.ia))
    old_of_new;
  Array.iter
    (fun l ->
      match (Hashtbl.find_opt new_of_old l.a, Hashtbl.find_opt new_of_old l.b) with
      | Some na, Some nb -> add_link b ~rel:(relabel_rel l.rel) na nb
      | _ -> ())
    t.links;
  (freeze b, old_of_new)

let to_builder ?(rel = fun l -> l.rel) t =
  let b = builder () in
  Array.iter
    (fun info ->
      ignore (add_as b ~tier:info.tier ~cities:info.cities ~core:info.core info.ia))
    t.ases;
  Array.iter (fun l -> add_link b ~rel:(rel l) l.a l.b) t.links;
  b

let map_as_info t f = { t with ases = Array.mapi f t.ases }

let all_core t = map_as_info t (fun _ info -> { info with core = true })

let prune_to_top_degree t k =
  let nn = n t in
  (* Incremental min-degree pruning with a lazy-deletion heap. *)
  let removed = Array.make nn false in
  let degree = Array.make nn 0 in
  for v = 0 to nn - 1 do
    degree.(v) <- as_degree t v
  done;
  let heap = Heap.create ~cmp:(fun (x : int * int) y -> compare x y) in
  for v = 0 to nn - 1 do
    Heap.push heap (degree.(v), v)
  done;
  let remaining = ref nn in
  while !remaining > k do
    match Heap.pop heap with
    | None -> remaining := k
    | Some (d, v) ->
        if (not removed.(v)) && d = degree.(v) then begin
          removed.(v) <- true;
          decr remaining;
          let touched = Hashtbl.create 8 in
          Array.iter
            (fun h ->
              if (not removed.(h.peer)) && not (Hashtbl.mem touched h.peer) then begin
                Hashtbl.replace touched h.peer ();
                degree.(h.peer) <- degree.(h.peer) - 1;
                Heap.push heap (degree.(h.peer), h.peer)
              end)
            t.adjacency.(v)
        end
  done;
  let keep = ref [] in
  for v = nn - 1 downto 0 do
    if not removed.(v) then keep := v :: !keep
  done;
  let sub, map1 = induced_subgraph ~relabel_rel:(fun _ -> Core) t !keep in
  match connected_components sub with
  | [] -> (sub, map1)
  | largest :: _ ->
      if List.length largest = n sub then
        ((* Already connected: mark everyone core. *)
         all_core sub, map1)
      else begin
        let sub2, map2 = induced_subgraph sub largest in
        let composed = Array.map (fun ni -> map1.(ni)) map2 in
        (all_core sub2, composed)
      end

(* --- Serialisation --- *)

let rel_to_string = function
  | Core -> "core"
  | Provider_customer -> "p2c"
  | Peering -> "peer"

let rel_of_string = function
  | "core" -> Some Core
  | "p2c" -> Some Provider_customer
  | "peer" -> Some Peering
  | _ -> None

let to_text t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i info ->
      Buffer.add_string buf
        (Printf.sprintf "as %d %s tier=%d core=%d cities=%s\n" i
           (Id.ia_to_string info.ia) info.tier
           (if info.core then 1 else 0)
           (String.concat "," (Array.to_list (Array.map string_of_int info.cities)))))
    t.ases;
  Array.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "link %d %d %s\n" l.a l.b (rel_to_string l.rel)))
    t.links;
  Buffer.contents buf

let of_text s =
  let b = builder () in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && !error = None then begin
        match String.split_on_char ' ' line with
        | [ "as"; _idx; ia_s; tier_s; core_s; cities_s ] -> (
            let parse_kv prefix s =
              if String.length s >= String.length prefix
                 && String.sub s 0 (String.length prefix) = prefix
              then
                Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
              else None
            in
            match
              ( Id.ia_of_string ia_s,
                Option.bind (parse_kv "tier=" tier_s) int_of_string_opt,
                Option.bind (parse_kv "core=" core_s) int_of_string_opt,
                parse_kv "cities=" cities_s )
            with
            | Some ia, Some tier, Some core, Some cities_v ->
                let cities =
                  if cities_v = "" then [||]
                  else
                    String.split_on_char ',' cities_v
                    |> List.filter_map int_of_string_opt
                    |> Array.of_list
                in
                ignore (add_as b ~tier ~cities ~core:(core = 1) ia)
            | _ -> fail (Printf.sprintf "line %d: malformed as line" (lineno + 1)))
        | [ "link"; a_s; b_s; rel_s ] -> (
            match (int_of_string_opt a_s, int_of_string_opt b_s, rel_of_string rel_s) with
            | Some a, Some bb, Some rel -> (
                try add_link b ~rel a bb
                with Invalid_argument m ->
                  fail (Printf.sprintf "line %d: %s" (lineno + 1) m))
            | _ -> fail (Printf.sprintf "line %d: malformed link line" (lineno + 1)))
        | _ -> fail (Printf.sprintf "line %d: unknown record" (lineno + 1))
      end)
    lines;
  match !error with Some msg -> Error msg | None -> Ok (freeze b)

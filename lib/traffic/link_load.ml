type t = {
  capacity : float array;  (** per link, Mbit/s, already scaled *)
  counts : int array;  (** subflows currently riding each link *)
}

(* Capacities in Mbit/s by business relationship. Core trunks are
   fattest; provider-customer links thin out with the provider's tier;
   peering sits in between. The absolute numbers only matter relative
   to the demand model's flow sizes — they are chosen so that popular
   links run into contention at the default scales. *)
let base_capacity g l =
  let open Graph in
  match l.rel with
  | Core -> 10_000.0
  | Peering -> 1_500.0
  | Provider_customer -> (
      match (as_info g l.a).tier with
      | 1 -> 4_000.0
      | 2 -> 2_000.0
      | _ -> 1_000.0)

let create ?(capacity_scale = 1.0) g =
  if not (capacity_scale > 0.0) then
    invalid_arg "Link_load.create: capacity_scale <= 0";
  let m = Graph.num_links g in
  {
    capacity =
      Array.init m (fun i -> base_capacity g (Graph.link g i) *. capacity_scale);
    counts = Array.make m 0;
  }

let capacity_mbps t l = t.capacity.(l)

let count t l = t.counts.(l)

let capacities t = t.capacity

let counts t = t.counts

let add_path t links =
  for x = 0 to Array.length links - 1 do
    let l = links.(x) in
    t.counts.(l) <- t.counts.(l) + 1
  done

let remove_path t links =
  for x = 0 to Array.length links - 1 do
    let l = links.(x) in
    if t.counts.(l) = 0 then
      invalid_arg "Link_load.remove_path: count underflow";
    t.counts.(l) <- t.counts.(l) - 1
  done

(* Capacities are positive and never NaN, so [<] picks what [Float.min]
   would. The rate is stored, not returned: a float returned across a
   module boundary is boxed. *)
let fair_share_into t links dst i =
  let share = ref infinity in
  for x = 0 to Array.length links - 1 do
    let l = links.(x) in
    let c = t.counts.(l) in
    if c <> 0 then begin
      let v = t.capacity.(l) /. float_of_int c in
      if v < !share then share := v
    end
  done;
  dst.(i) <- !share

type t = { holds : int array; since : float array }

type transition = Went_down | Went_up | No_change

let create ~n_links =
  if n_links < 0 then invalid_arg "Link_state.create: n_links must be >= 0";
  { holds = Array.make n_links 0; since = Array.make n_links nan }

let apply t ~now ~link ~action =
  match action with
  | Fault_plan.Down ->
      t.holds.(link) <- t.holds.(link) + 1;
      if t.holds.(link) = 1 then begin
        t.since.(link) <- now;
        Went_down
      end
      else No_change
  | Fault_plan.Up ->
      if t.holds.(link) = 0 then No_change
      else begin
        t.holds.(link) <- t.holds.(link) - 1;
        if t.holds.(link) = 0 then Went_up else No_change
      end

let replay t events ~from ~until ~on_down ~on_up =
  let i = ref from in
  while !i < Array.length events && events.(!i).Fault_plan.time <= until do
    let { Fault_plan.time = now; link; action } = events.(!i) in
    (match apply t ~now ~link ~action with
    | Went_down -> on_down ~now ~link
    | Went_up -> on_up ~now ~link
    | No_change -> ());
    incr i
  done;
  !i

let up t l = t.holds.(l) = 0

let down_since t l = if t.holds.(l) > 0 then Some t.since.(l) else None

let down_links t =
  let acc = ref [] in
  for l = Array.length t.holds - 1 downto 0 do
    if t.holds.(l) > 0 then acc := l :: !acc
  done;
  !acc

let n_links t = Array.length t.holds

let holds t l = t.holds.(l)

let write w t =
  Snapshot.w_arr w Snapshot.w_int t.holds;
  Snapshot.w_arr w Snapshot.w_f64 t.since

let read r =
  let holds = Snapshot.r_arr r Snapshot.r_int in
  let since = Snapshot.r_arr r Snapshot.r_f64 in
  if Array.length holds <> Array.length since then
    Snapshot.corrupt "link state: %d holds but %d timestamps"
      (Array.length holds) (Array.length since);
  { holds; since }

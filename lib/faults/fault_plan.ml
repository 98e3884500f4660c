type action = Down | Up

type event = { time : float; link : int; action : action }

type spec =
  | Link_down of { link : int; at : float; duration : float }
  | As_outage of { as_idx : int; at : float; duration : float }
  | Flapping of {
      link : int;
      at : float;
      period : float;
      down_fraction : float;
      until : float;
    }
  | Stochastic of { mtbf : float; mttr : float; start : float; until : float }

type t = { seed : int64; specs : spec list }

let plan ?(seed = 0xFA17L) specs = { seed; specs }

let check_link g l =
  if l < 0 || l >= Graph.num_links g then
    invalid_arg (Printf.sprintf "Fault_plan.compile: unknown link %d" l)

let check_time name x =
  if not (x >= 0.0) (* also rejects nan *) then
    invalid_arg (Printf.sprintf "Fault_plan.compile: %s must be >= 0" name)

let check_pos name x =
  if not (x > 0.0) then
    invalid_arg (Printf.sprintf "Fault_plan.compile: %s must be positive" name)

(* Links incident to an AS, deduplicated (self-loops are impossible in
   the multigraph) and in ascending id order for determinism. *)
let incident_links g v =
  Array.to_list (Graph.adj g v)
  |> List.map (fun (h : Graph.half_link) -> h.Graph.via)
  |> List.sort_uniq compare

let compile ~graph:g t =
  let events = ref [] in
  let seq = ref 0 in
  let emit time link action =
    events := (time, !seq, { time; link; action }) :: !events;
    incr seq
  in
  let down_up link ~at ~duration =
    emit at link Down;
    if duration < infinity then emit (at +. duration) link Up
  in
  List.iteri
    (fun spec_idx spec ->
      match spec with
      | Link_down { link; at; duration } ->
          check_link g link;
          check_time "at" at;
          check_pos "duration" duration;
          down_up link ~at ~duration
      | As_outage { as_idx; at; duration } ->
          if as_idx < 0 || as_idx >= Graph.n g then
            invalid_arg "Fault_plan.compile: unknown AS";
          check_time "at" at;
          check_pos "duration" duration;
          List.iter (fun l -> down_up l ~at ~duration) (incident_links g as_idx)
      | Flapping { link; at; period; down_fraction; until } ->
          check_link g link;
          check_time "at" at;
          check_pos "period" period;
          if not (down_fraction > 0.0 && down_fraction < 1.0) then
            invalid_arg "Fault_plan.compile: down_fraction must be in (0, 1)";
          let t = ref at in
          while !t < until do
            down_up link ~at:!t ~duration:(down_fraction *. period);
            t := !t +. period
          done
      | Stochastic { mtbf; mttr; start; until } ->
          check_pos "mtbf" mtbf;
          check_pos "mttr" mttr;
          check_time "start" start;
          (* Each link gets its own stream split off (plan seed, spec
             index), so adding a spec or a link never perturbs the
             draws of the others. *)
          let spec_seed = Runner.job_seed t.seed spec_idx in
          for l = 0 to Graph.num_links g - 1 do
            let rng = Rng.create (Runner.job_seed spec_seed l) in
            let now = ref (start +. Rng.exponential rng (1.0 /. mtbf)) in
            while !now < until do
              let repair = Rng.exponential rng (1.0 /. mttr) in
              down_up l ~at:!now ~duration:repair;
              now := !now +. repair +. Rng.exponential rng (1.0 /. mtbf)
            done
          done)
    t.specs;
  let arr = Array.of_list !events in
  Array.sort
    (fun (ta, sa, _) (tb, sb, _) ->
      match compare ta tb with 0 -> compare sa sb | c -> c)
    arr;
  Array.map (fun (_, _, e) -> e) arr

let fingerprint ~graph t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "plan:%Ld;" t.seed;
  Array.iter
    (fun e ->
      add "%h/%d/%s;" e.time e.link
        (match e.action with Down -> "d" | Up -> "u"))
    (compile ~graph t);
  Buffer.contents b

let max_attempts = 500

let sample_adjacencies ~rng ~count ~accept g =
  let selected = ref [] in
  let n_selected = ref 0 in
  let used = Hashtbl.create 8 in
  let attempts = ref 0 in
  while !n_selected < count && !attempts < max_attempts do
    incr attempts;
    let l = Rng.int rng (Graph.num_links g) in
    if not (Hashtbl.mem used l) then begin
      let lk = Graph.link g l in
      let siblings =
        List.map
          (fun (x : Graph.link) -> x.Graph.link_id)
          (Graph.links_between g lk.Graph.a lk.Graph.b)
      in
      match accept ~link:lk ~siblings with
      | None -> ()
      | Some v ->
          List.iter (fun sl -> Hashtbl.replace used sl ()) siblings;
          selected := v :: !selected;
          incr n_selected
    end
  done;
  List.rev !selected

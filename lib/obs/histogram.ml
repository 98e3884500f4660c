(* Bucket-boundary ratio: ~19 % bucket width. *)
let growth = 2.0 ** 0.25
let log_growth = log growth

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable nonpos : int;
  buckets : (int, int ref) Hashtbl.t;
}

let create () =
  {
    count = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
    nonpos = 0;
    buckets = Hashtbl.create 32;
  }

let bucket_of v = int_of_float (Float.floor (log v /. log_growth))

let lower_bound i = growth ** float_of_int i

let observe t v =
  if Float.is_nan v then invalid_arg "Histogram.observe: nan";
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  if v <= 0.0 then t.nonpos <- t.nonpos + 1
  else begin
    let i = bucket_of v in
    match Hashtbl.find_opt t.buckets i with
    | Some r -> incr r
    | None -> Hashtbl.replace t.buckets i (ref 1)
  end

let count t = t.count

let sum t = t.sum

let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count

let min_value t = if t.count = 0 then nan else t.vmin

let max_value t = if t.count = 0 then nan else t.vmax

let sorted_buckets t =
  Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q outside [0,1]";
  if t.count = 0 then nan
  else begin
    (* Rank of the requested order statistic, 1-based. *)
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
    in
    if rank <= t.nonpos then Float.min 0.0 t.vmax |> Float.max t.vmin
    else begin
      let rest = rank - t.nonpos in
      let rec walk acc = function
        | [] -> t.vmax
        | (i, c) :: tl ->
            if acc + c >= rest then
              (* Geometric midpoint of the matched bucket, clamped to
                 the observed range so tail quantiles stay honest. *)
              lower_bound i *. sqrt growth
              |> Float.max t.vmin
              |> Float.min t.vmax
            else walk (acc + c) tl
      in
      walk 0 (sorted_buckets t)
    end
  end

let fraction_le t x =
  if t.count = 0 then nan
  else begin
    let inside = ref (if x >= 0.0 then t.nonpos else 0) in
    let covered = ref 0.0 in
    List.iter
      (fun (i, c) ->
        let lo = lower_bound i and hi = lower_bound (i + 1) in
        if x >= hi then inside := !inside + c
        else if x > lo then
          (* Interpolate inside the straddled bucket, linearly in log
             space (the bucket's natural scale). *)
          covered :=
            !covered
            +. (float_of_int c *. (log x -. log lo) /. (log hi -. log lo)))
      (sorted_buckets t);
    (float_of_int !inside +. !covered) /. float_of_int t.count
  end

let merge ~into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax;
  into.nonpos <- into.nonpos + src.nonpos;
  Hashtbl.iter
    (fun i r ->
      match Hashtbl.find_opt into.buckets i with
      | Some r' -> r' := !r' + !r
      | None -> Hashtbl.replace into.buckets i (ref !r))
    src.buckets

let write w t =
  Snapshot.w_f64 w growth;
  Snapshot.w_int w t.count;
  Snapshot.w_f64 w t.sum;
  Snapshot.w_f64 w t.vmin;
  Snapshot.w_f64 w t.vmax;
  Snapshot.w_int w t.nonpos;
  Snapshot.w_list w
    (fun w (i, c) ->
      Snapshot.w_int w i;
      Snapshot.w_int w c)
    (sorted_buckets t)

let read r =
  let g = Snapshot.r_f64 r in
  if g <> growth then Snapshot.corrupt "bad histogram growth %h" g;
  let t = create () in
  t.count <- Snapshot.r_int r;
  t.sum <- Snapshot.r_f64 r;
  t.vmin <- Snapshot.r_f64 r;
  t.vmax <- Snapshot.r_f64 r;
  t.nonpos <- Snapshot.r_int r;
  Snapshot.r_sorted r "histogram buckets" (fun r ->
      let i = Snapshot.r_int r in
      Hashtbl.replace t.buckets i (ref (Snapshot.r_int r));
      i);
  t

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize (t : t) =
  {
    count = t.count;
    sum = t.sum;
    min = min_value t;
    max = max_value t;
    mean = mean t;
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p99 = quantile t 0.99;
  }

let to_json t =
  let s = summarize t in
  let buckets =
    List.map
      (fun (i, c) ->
        Obs_json.Obj
          [
            ("le", Obs_json.Float (lower_bound (i + 1)));
            ("count", Obs_json.Int c);
          ])
      (sorted_buckets t)
  in
  let buckets =
    if t.nonpos = 0 then buckets
    else Obs_json.Obj [ ("le", Obs_json.Float 0.0); ("count", Obs_json.Int t.nonpos) ] :: buckets
  in
  Obs_json.Obj
    [
      ("count", Obs_json.Int s.count);
      ("sum", Obs_json.Float s.sum);
      ("min", Obs_json.Float s.min);
      ("max", Obs_json.Float s.max);
      ("mean", Obs_json.Float s.mean);
      ("p50", Obs_json.Float s.p50);
      ("p90", Obs_json.Float s.p90);
      ("p99", Obs_json.Float s.p99);
      ("buckets", Obs_json.List buckets);
    ]

type labels = (string * string) list

type metric =
  | M_counter of float ref
  | M_hist of Histogram.t

type t = { tbl : (string * labels, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let norm labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

let find_or_create t name labels make =
  let key = (name, norm labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace t.tbl key m;
      m

let kind_name = function
  | M_counter _ -> "counter"
  | M_hist _ -> "histogram"

let wrong_kind name expected m =
  invalid_arg
    (Printf.sprintf "Registry: %s is a %s, not a %s" name (kind_name m) expected)

let counter t ?(labels = []) name =
  match find_or_create t name labels (fun () -> M_counter (ref 0.0)) with
  | M_counter r -> r
  | m -> wrong_kind name "counter" m

let histogram t ?(labels = []) name =
  match
    find_or_create t name labels (fun () -> M_hist (Histogram.create ()))
  with
  | M_hist h -> h
  | m -> wrong_kind name "histogram" m

let add t ?labels name v =
  let r = counter t ?labels name in
  r := !r +. v

type value =
  | Counter of float
  | Hist of Histogram.summary

type sample = { name : string; labels : labels; value : value }

type snapshot = sample list

let snapshot t =
  Hashtbl.fold
    (fun (name, labels) m acc ->
      let value =
        match m with
        | M_counter r -> Counter !r
        | M_hist h -> Hist (Histogram.summarize h)
      in
      { name; labels; value } :: acc)
    t.tbl []
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let to_json t =
  (* Full export: histograms carry their buckets, not just the summary. *)
  let metrics =
    Hashtbl.fold
      (fun (name, labels) m acc -> ((name, labels), m) :: acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun ((name, labels), m) ->
           let base =
             [
               ("name", Obs_json.String name);
               ( "labels",
                 Obs_json.Obj
                   (List.map (fun (k, v) -> (k, Obs_json.String v)) labels) );
               ("kind", Obs_json.String (kind_name m));
             ]
           in
           match m with
           | M_counter r -> Obs_json.Obj (base @ [ ("value", Obs_json.Float !r) ])
           | M_hist h ->
               Obs_json.Obj (base @ [ ("histogram", Histogram.to_json h) ]))
  in
  Obs_json.List metrics

let write w t =
  let series =
    Hashtbl.fold (fun key m acc -> (key, m) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Snapshot.w_list w
    (fun w ((name, labels), m) ->
      Snapshot.w_str w name;
      Snapshot.w_list w
        (fun w (k, v) ->
          Snapshot.w_str w k;
          Snapshot.w_str w v)
        labels;
      (* Tag 1 is unused: renumbering would change the bytes of every
         checkpoint that holds a histogram. *)
      match m with
      | M_counter r ->
          Snapshot.w_u8 w 0;
          Snapshot.w_f64 w !r
      | M_hist h ->
          Snapshot.w_u8 w 2;
          Histogram.write w h)
    series

let read r =
  let t = create () in
  Snapshot.r_sorted r "registry series" (fun r ->
      let name = Snapshot.r_str r in
      let labels =
        Snapshot.r_list r (fun r ->
            let k = Snapshot.r_str r in
            (k, Snapshot.r_str r))
      in
      if norm labels <> labels then
        Snapshot.corrupt "metric labels out of order";
      let m =
        match Snapshot.r_u8 r with
        | 0 -> M_counter (ref (Snapshot.r_f64 r))
        | 2 -> M_hist (Histogram.read r)
        | v -> Snapshot.corrupt "bad metric tag %d" v
      in
      Hashtbl.replace t.tbl (name, labels) m;
      (name, labels));
  t

let merge ~into src =
  Hashtbl.iter
    (fun (name, labels) m ->
      match m with
      | M_counter r ->
          let r' = counter into ~labels name in
          r' := !r' +. !r
      | M_hist h ->
          let h' = histogram into ~labels name in
          Histogram.merge ~into:h' h)
    src.tbl

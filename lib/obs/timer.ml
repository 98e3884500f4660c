type entry = { mutable total : float; mutable count : int }

type t = { tbl : (string, entry) Hashtbl.t }

let create () = { tbl = Hashtbl.create 16 }

let now () = Unix.gettimeofday ()

let entry t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None ->
      let e = { total = 0.0; count = 0 } in
      Hashtbl.replace t.tbl name e;
      e

let record t name seconds =
  let e = entry t name in
  e.total <- e.total +. seconds;
  e.count <- e.count + 1

let time t name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> record t name (now () -. t0)) f

let total t name =
  match Hashtbl.find_opt t.tbl name with Some e -> e.total | None -> 0.0

let report t =
  Hashtbl.fold (fun name e acc -> (name, e.total, e.count) :: acc) t.tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let merge ~into src =
  Hashtbl.iter
    (fun name e ->
      let e' = entry into name in
      e'.total <- e'.total +. e.total;
      e'.count <- e'.count + e.count)
    src.tbl

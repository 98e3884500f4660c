(* In-memory span recorder for the traced benchmark run.

   A span is one call into a library layer, timed from outside the
   library: name, start, end and the index of the enclosing span. The
   recorder only appends to a growable array; nothing is aggregated or
   written until the run is over, so the cost per span is two clock
   reads and one record. A disabled recorder calls straight through. *)

type span = { name : string; parent : int; start : float; mutable stop : float }

type t = {
  on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable current : int;  (** index of the open span, -1 at top level *)
}

let now = Unix.gettimeofday

let dummy = { name = ""; parent = -1; start = 0.0; stop = 0.0 }

let create ~on = { on; spans = Array.make (if on then 4096 else 0) dummy; len = 0; current = -1 }

let enabled t = t.on

let with_ t name f =
  if not t.on then f ()
  else begin
    if t.len = Array.length t.spans then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    let id = t.len in
    let parent = t.current in
    t.spans.(id) <- { name; parent; start = now (); stop = nan };
    t.len <- id + 1;
    t.current <- id;
    Fun.protect
      ~finally:(fun () ->
        t.spans.(id).stop <- now ();
        t.current <- parent)
      f
  end

let spans t = Array.sub t.spans 0 t.len

let duration s = s.stop -. s.start

(* Total and self time per span name. Self time is a span's duration
   minus the durations of its direct children, so the self times of
   all spans under one root add up to the root's duration. *)
let totals t =
  let spans = spans t in
  let child = Array.make (Array.length spans) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s)
    spans;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let total, self, n =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0.0, 0)
      in
      Hashtbl.replace tbl s.name
        (total +. duration s, self +. duration s -. child.(i), n + 1))
    spans;
  tbl

let durations t name =
  Array.of_list
    (Array.fold_right
       (fun s acc -> if s.name = name then duration s :: acc else acc)
       (spans t) [])

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\tname\tstart_s\tend_s\n";
      let spans = spans t in
      let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start in
      Array.iteri
        (fun i s ->
          Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" i s.parent s.name
            (s.start -. t0) (s.stop -. t0))
        spans)

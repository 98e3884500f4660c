(* Adjacency as arrays of edge indices; edges stored flat with their
   reverse-edge index, the standard Dinic layout. *)

type t = {
  n : int;
  mutable head : int array; (* per node, list head into [next] *)
  mutable dst : int array;
  mutable cap : int array;
  mutable next : int array;
  mutable m : int; (* number of directed edge slots used *)
}

let create ~n =
  {
    n;
    head = Array.make n (-1);
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    next = Array.make 16 (-1);
    m = 0;
  }

let ensure t =
  if t.m = Array.length t.dst then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.dst <- grow t.dst;
    t.cap <- grow t.cap;
    t.next <- Array.append t.next (Array.make (Array.length t.next) (-1))
  end

let push_edge t src dst cap =
  ensure t;
  let e = t.m in
  t.dst.(e) <- dst;
  t.cap.(e) <- cap;
  t.next.(e) <- t.head.(src);
  t.head.(src) <- e;
  t.m <- e + 1

let add_undirected t x y ~cap =
  if x < 0 || x >= t.n || y < 0 || y >= t.n then
    invalid_arg "Maxflow.add_undirected: node out of range";
  (* Each edge is paired with its reverse at index xor 1. *)
  push_edge t x y cap;
  push_edge t y x cap

let max_flow t ~src ~dst =
  if src = dst then 0
  else begin
    let level = Array.make t.n (-1) in
    let iter = Array.make t.n (-1) in
    let queue = Array.make t.n 0 in
    let bfs () =
      Array.fill level 0 t.n (-1);
      level.(src) <- 0;
      queue.(0) <- src;
      let qh = ref 0 and qt = ref 1 in
      while !qh < !qt do
        let v = queue.(!qh) in
        incr qh;
        let e = ref t.head.(v) in
        while !e >= 0 do
          if t.cap.(!e) > 0 && level.(t.dst.(!e)) < 0 then begin
            level.(t.dst.(!e)) <- level.(v) + 1;
            queue.(!qt) <- t.dst.(!e);
            incr qt
          end;
          e := t.next.(!e)
        done
      done;
      level.(dst) >= 0
    in
    let rec dfs v f =
      if v = dst then f
      else begin
        let result = ref 0 in
        while !result = 0 && iter.(v) >= 0 do
          let e = iter.(v) in
          let u = t.dst.(e) in
          if t.cap.(e) > 0 && level.(u) = level.(v) + 1 then begin
            let d = dfs u (min f t.cap.(e)) in
            if d > 0 then begin
              t.cap.(e) <- t.cap.(e) - d;
              t.cap.(e lxor 1) <- t.cap.(e lxor 1) + d;
              result := d
            end
            else iter.(v) <- t.next.(e)
          end
          else iter.(v) <- t.next.(e)
        done;
        !result
      end
    in
    let flow = ref 0 in
    while bfs () do
      Array.blit t.head 0 iter 0 t.n;
      let d = ref (dfs src max_int) in
      while !d > 0 do
        flow := !flow + !d;
        d := dfs src max_int
      done
    done;
    !flow
  end

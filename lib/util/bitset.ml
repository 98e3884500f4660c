type t = { words : Bytes.t; capacity : int }

(* One byte per 8 elements; Bytes gives compact, mutable storage. *)

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((n + 7) / 8) '\000'; capacity = n }


let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let byte = Char.code (Bytes.get t.words (i / 8)) in
  Bytes.set t.words (i / 8) (Char.chr (byte lor (1 lsl (i mod 8))))

let union_into ~dst src =
  if dst.capacity <> src.capacity then
    invalid_arg "Bitset.union_into: capacity mismatch";
  for b = 0 to Bytes.length dst.words - 1 do
    Bytes.set dst.words b
      (Char.chr (Char.code (Bytes.get dst.words b) lor Char.code (Bytes.get src.words b)))
  done

let popcount_byte = Array.init 256 (fun b ->
    let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
    count b 0)

let cardinal t =
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + popcount_byte.(Char.code c)) t.words;
  !total

let iter f t =
  for i = 0 to t.capacity - 1 do
    if Char.code (Bytes.get t.words (i / 8)) land (1 lsl (i mod 8)) <> 0 then f i
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

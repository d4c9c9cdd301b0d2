(* Bit vectors over [0 .. n - 1]: member [i] is bit [i mod w] of word
   [i / w], where [w] is [Sys.int_size]. *)

type t = int array

let w = Sys.int_size
let create n = Array.make ((n + w - 1) / w) 0
let add s i = s.(i / w) <- s.(i / w) lor (1 lsl (i mod w))
let remove s i = s.(i / w) <- s.(i / w) land lnot (1 lsl (i mod w))

let union_into a b =
  for k = 0 to Array.length a - 1 do
    a.(k) <- a.(k) lor b.(k)
  done

let union a b =
  let c = Array.copy a in
  union_into c b;
  c

let inter_into a b =
  for k = 0 to Array.length a - 1 do
    a.(k) <- a.(k) land b.(k)
  done

(* The position of a word's only set bit. *)
let position x =
  let rec go x n width =
    if width = 0 then n
    else if x land ((1 lsl width) - 1) = 0 then
      go (x lsr width) (n + width) (width / 2)
    else go x n (width / 2)
  in
  go x 0 32

(* [f] over the set bits of word [x], the word's first member being
   [base], lowest first. *)
let rec iter_word f base x =
  if x <> 0 then (
    let low = x land -x in
    f (base + position low);
    iter_word f base (x lxor low))

let iter f s = Array.iteri (fun k x -> if x <> 0 then iter_word f (k * w) x) s

let iter_diff f a b =
  Array.iteri
    (fun k x ->
      let x = x land lnot b.(k) in
      if x <> 0 then iter_word f (k * w) x)
    a

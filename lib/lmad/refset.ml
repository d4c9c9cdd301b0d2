(* Summaries of memory references as unions of LMADs (section V-B).

   The short-circuiting analysis maintains two such summaries per
   candidate: U_xss (all uses of the destination memory seen so far,
   scanning bottom-up from the circuit point) and W_bs (all writes
   performed through the rebased candidate).  The only operations the
   analysis needs are union, aggregation over loop indices (by LMAD
   dimension promotion), and pairwise disjointness - no intersection or
   subtraction, which the paper notes keeps this much simpler than
   full parallelism analysis.

   [Top] conservatively overestimates a summary to "all of memory"
   (footnote 26), used e.g. for multi-LMAD index functions or
   data-dependent offsets; it is disjoint from nothing but the empty
   summary. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type t = Top | Union of Lmad.t list

let empty = Union []
let top = Top
let of_lmad l = Union [ l ]

let is_empty ctx = function
  | Top -> false
  | Union ls -> List.for_all (Lmad.is_empty_set ctx) ls

let union a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Union xs, Union ys -> Union (xs @ ys)

let unions = List.fold_left union empty

(* Pairwise sufficient disjointness: every LMAD of [a] provably avoids
   every LMAD of [b].  [depth] bounds the dimension-splitting recursion
   of the underlying non-overlap test (0 disables splitting, used by the
   ablation study). *)
let disjoint ?depth ctx a b =
  match (a, b) with
  | Top, x | x, Top -> is_empty ctx x
  | Union xs, Union ys ->
      List.for_all
        (fun x ->
          List.for_all (fun y -> Nonoverlap.disjoint ?depth ctx x y) ys)
        xs

(* Aggregate the summary across [for v = 0 .. count-1]: each LMAD is
   expanded by dimension promotion; failure of any expansion
   overestimates the whole summary to Top. *)
let expand_loop ctx v ~count = function
  | Top -> Top
  | Union xs ->
      let rec go acc = function
        | [] -> Union (List.rev acc)
        | l :: rest -> (
            match Lmad.expand_loop ctx v ~count l with
            | Some l' -> go (l' :: acc) rest
            | None -> Top)
      in
      go [] xs

(* Substitute a variable in every constituent LMAD; Top stays Top. *)
let subst v by = function
  | Top -> Top
  | Union xs -> Union (List.map (Lmad.subst v by) xs)

let subst_map env = function
  | Top -> Top
  | Union xs -> Union (List.map (Lmad.subst_map env) xs)

(* Concretize every constituent LMAD under an integer assignment; a
   Top summary has no finite enumeration. *)
let concretize env = function
  | Top -> None
  | Union xs -> Some (List.map (Lmad.concretize env) xs)

(* Free variables (empty for Top). *)
let vars = function
  | Top -> []
  | Union xs -> List.sort_uniq String.compare (List.concat_map Lmad.vars xs)

let pp ppf = function
  | Top -> Fmt.string ppf "TOP"
  | Union [] -> Fmt.string ppf "{}"
  | Union xs -> Fmt.pf ppf "@[<h>%a@]" Fmt.(list ~sep:(any " U ") Lmad.pp) xs

(* Statically checking non-overlap of a pair of LMADs (section V-C).

   The test follows the paper's Non-Overlap theorem: convert both LMADs
   to sums of strided intervals over a *matching* stride basis, with all
   lower bounds nonnegative, by distributing the terms of the offset
   difference positively across the dimensions (footnote 27).  Then

     I1 cap I2 = empty

   holds if (a) both sums have pairwise "non-overlapping dimensions",
   i.e. for every i (ascending stride order)

     s_i > sum_{j<i} u_j * s_j          (checked per set)

   and (b) some dimension has disjoint intervals.  When (a) fails, the
   offending inner dimension is split into "all but the last point" and
   "the last point" (whose contribution is redistributed across the
   other dimensions), and the test recurses on the cross product of the
   splits (Fig. 8), up to a fixed depth.

   Soundness argument for (a)+(b): if x lies in both sets, subtract the
   two digit decompositions and consider the highest differing digit d;
   per-set condition (a) bounds the carry from lower digits of either
   decomposition strictly below s_d (using l_j >= 0), contradicting
   equality; hence decompositions agree digit-wise, contradicting (b).

   The test is *sufficient*: [true] implies disjointness under every
   assignment satisfying the prover context; [false] means unknown. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type interval = {
  lo : P.t; (* inclusive; invariant: provably >= 0 *)
  hi : P.t; (* inclusive *)
  stride : P.t; (* provably > 0, or exactly 1 *)
}

type sum_of_intervals = interval list (* sorted by descending stride *)

(* ---------------------------------------------------------------- *)
(* Stride bases                                                      *)
(* ---------------------------------------------------------------- *)

(* Sort strides descending; requires the prover to order each adjacent
   pair.  Returns None when two strides are incomparable. *)
let sort_strides ctx (ss : P.t list) : P.t list option =
  let exception Incomparable in
  try
    Some
      (List.sort
         (fun a b ->
           if Pr.prove_eq ctx a b then 0
           else if Pr.prove_gt ctx a b then -1
           else if Pr.prove_lt ctx a b then 1
           else raise Incomparable)
         ss)
  with Incomparable -> None

(* The union of the strides of both LMADs, deduplicated by provable
   equality, sorted descending.  All strides are rewritten with the
   context equalities first so that syntactically different but equal
   strides (e.g. [n*b - b] vs [q*b^2] under [n = q*b + 1]) coincide. *)
let merge_bases ctx ss1 ss2 =
  let add acc s =
    if List.exists (fun s' -> Pr.prove_eq ctx s s') acc then acc
    else s :: acc
  in
  sort_strides ctx (List.fold_left add [] (ss1 @ ss2))

(* ---------------------------------------------------------------- *)
(* Conversion of an LMAD to intervals over a given basis              *)
(* ---------------------------------------------------------------- *)

(* Intervals for LMAD dims over [basis]; dims absent from the LMAD get
   the degenerate interval [0..0].  Fails if the LMAD has two dims with
   the same stride (their points interact and cannot be treated as
   independent digits). *)
let to_intervals ctx (l : Lmad.t) (basis : P.t list) :
    sum_of_intervals option =
  let rec go remaining = function
    | [] -> if remaining = [] then Some [] else None
    | s :: rest -> (
        let matching, others =
          List.partition (fun d -> Pr.prove_eq ctx d.Lmad.s s) remaining
        in
        match matching with
        | [] ->
            Option.map
              (fun ivs -> { lo = P.zero; hi = P.zero; stride = s } :: ivs)
              (go remaining rest)
        | [ d ] ->
            Option.map
              (fun ivs ->
                { lo = P.zero; hi = P.sub d.Lmad.n P.one; stride = s } :: ivs)
              (go others rest)
        | _ -> None (* two dims with equal strides: give up *))
  in
  go (Lmad.dims l) basis

(* ---------------------------------------------------------------- *)
(* Offset-difference distribution (footnote 27)                       *)
(* ---------------------------------------------------------------- *)

(* Distribute polynomial [d] as sum_j delta_j * s_j with each delta_j of
   provable sign, shifting I1's interval j up by positive deltas and
   I2's by the negated negative deltas, so both keep lo >= 0.  The
   strides are visited in descending order so the most complex terms
   are consumed first.  Returns None if a nonzero remainder survives. *)
type distribution =
  | Distributed of sum_of_intervals * sum_of_intervals
  | Residue_disjoint
      (* a nonzero constant remainder survived that no combination of
         strides can cancel: every point of I1 differs from every point
         of I2 modulo the gcd of the strides, so the sets are disjoint *)
  | Dist_fail

(* gcd of the integer contents of the strides: every value of a stride
   polynomial is divisible by the gcd of its coefficients. *)
let strides_gcd (ivs : sum_of_intervals) =
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  List.fold_left
    (fun acc iv ->
      let content =
        List.fold_left
          (fun acc (m : P.mono) -> gcd acc m.P.coeff)
          0 (P.monos iv.stride)
      in
      gcd acc content)
    0 ivs

let distribute ctx d (i1 : sum_of_intervals) (i2 : sum_of_intervals) :
    distribution =
  let shift iv delta =
    { iv with lo = P.add iv.lo delta; hi = P.add iv.hi delta }
  in
  let rec go d acc1 acc2 = function
    | [] -> (
        let d = Pr.rewrite ctx d in
        if P.is_zero d then Distributed (List.rev acc1, List.rev acc2)
        else
          match P.to_const_opt d with
          | Some c ->
              let g = strides_gcd i1 in
              if g > 1 && c mod g <> 0 then Residue_disjoint else Dist_fail
          | None -> Dist_fail)
    | (iv1, iv2) :: rest -> (
        let q, r = P.div_rem (Pr.rewrite ctx d) (Pr.rewrite ctx iv1.stride) in
        if P.is_zero q then go d (iv1 :: acc1) (iv2 :: acc2) rest
        else
          match Pr.sign ctx q with
          | Pr.Pos -> go r (shift iv1 q :: acc1) (iv2 :: acc2) rest
          | Pr.Neg -> go r (iv1 :: acc1) (shift iv2 (P.neg q) :: acc2) rest
          | Pr.Zero -> go d (iv1 :: acc1) (iv2 :: acc2) rest
          | Pr.Unknown -> Dist_fail)
  in
  go d [] [] (List.combine i1 i2)

(* ---------------------------------------------------------------- *)
(* The theorem's two conditions                                       *)
(* ---------------------------------------------------------------- *)

(* Ascending order helper: intervals are stored descending by stride. *)
let ascending ivs = List.rev ivs

(* Per-set condition: s_i > sum_{j<i} u_j * s_j for all i >= 2.
   Returns the index (in ascending order) of the first violating
   dimension, or None when the condition holds. *)
let first_overlapping_dim ctx (ivs : sum_of_intervals) : int option =
  let asc = ascending ivs in
  let rec go i acc = function
    | [] -> None
    | iv :: rest ->
        if i > 0 && not (Pr.prove_gt ctx iv.stride acc) then Some i
        else go (i + 1) (P.add acc (P.mul iv.hi iv.stride)) rest
  in
  go 0 P.zero asc

let dims_nonoverlapping ctx ivs = first_overlapping_dim ctx ivs = None

(* Does some dimension have provably disjoint intervals? *)
let exists_disjoint_dim ctx (i1 : sum_of_intervals) (i2 : sum_of_intervals) =
  List.exists2
    (fun a b -> Pr.prove_lt ctx a.hi b.lo || Pr.prove_lt ctx b.hi a.lo)
    i1 i2

(* A set is empty when some interval has hi < lo (a cardinal <= 0). *)
let is_empty ctx (ivs : sum_of_intervals) =
  List.exists (fun iv -> Pr.prove_lt ctx iv.hi iv.lo) ivs

(* ---------------------------------------------------------------- *)
(* Splitting an overlapping dimension (Fig. 8)                        *)
(* ---------------------------------------------------------------- *)

(* Split the sum at the dimension just inside the first violating one:
   [l..u]*s becomes the union of [l..u-1]*s and the single point u*s,
   the latter's contribution redistributed positively across the other
   dimensions.  Returns the list of resulting sums (possibly just the
   original when no dimension overlaps), or None for Fail. *)
let split_overlapping ctx (ivs : sum_of_intervals) :
    sum_of_intervals list option =
  match first_overlapping_dim ctx ivs with
  | None -> Some [ ivs ]
  | Some i_asc ->
      (* The offending carry comes from dimensions j < i_asc; split the
         widest inner one, which is the immediate inner dim (j = i_asc-1)
         in the cases of interest (Fig. 9 splits the 2nd of 3 dims). *)
      let n = List.length ivs in
      let j_desc = n - i_asc in
      (* index in the descending-order list of the dim to split *)
      let arr = Array.of_list ivs in
      if j_desc < 0 || j_desc >= n then None
      else
        let target = arr.(j_desc) in
        (* Part A: drop the last point. *)
        let part_a =
          Array.to_list
            (Array.mapi
               (fun k iv ->
                 if k = j_desc then { iv with hi = P.sub iv.hi P.one }
                 else iv)
               arr)
        in
        (* Part B: fix the dim at its last point and redistribute
           u*s across the other dimensions. *)
        let contribution = P.mul target.hi target.stride in
        let rest_b =
          Array.to_list
            (Array.mapi
               (fun k iv ->
                 if k = j_desc then { iv with lo = P.zero; hi = P.zero }
                 else iv)
               arr)
        in
        let rec redistribute d acc = function
          | [] -> if P.is_zero (Pr.rewrite ctx d) then Some (List.rev acc) else None
          | iv :: rest ->
              if P.equal iv.stride target.stride && P.is_zero iv.lo && P.is_zero iv.hi
              then redistribute d (iv :: acc) rest
              else
                let q, r =
                  P.div_rem (Pr.rewrite ctx d) (Pr.rewrite ctx iv.stride)
                in
                if P.is_zero q then redistribute d (iv :: acc) rest
                else if Pr.prove_nonneg ctx q then
                  redistribute r
                    ({ iv with lo = P.add iv.lo q; hi = P.add iv.hi q } :: acc)
                    rest
                else None
        in
        (match redistribute (Pr.rewrite ctx contribution) [] rest_b with
        | Some part_b -> Some [ part_a; part_b ]
        | None ->
            (* Could not redistribute: fall back to just part A if the
               last point is already outside the other set; impossible
               to know here, so Fail. *)
            None)

(* ---------------------------------------------------------------- *)
(* Main entry points                                                  *)
(* ---------------------------------------------------------------- *)

let rec disjoint_sums ctx depth (i1 : sum_of_intervals)
    (i2 : sum_of_intervals) : bool =
  is_empty ctx i1 || is_empty ctx i2
  ||
  if dims_nonoverlapping ctx i1 && dims_nonoverlapping ctx i2 then
    exists_disjoint_dim ctx i1 i2
  else if depth = 0 then false
  else
    match (split_overlapping ctx i1, split_overlapping ctx i2) with
    | Some parts1, Some parts2 ->
        List.for_all
          (fun p1 ->
            List.for_all (fun p2 -> disjoint_sums ctx (depth - 1) p1 p2) parts2)
          parts1
    | _ -> false

(* The test itself: sufficient that the point sets of the two LMADs do
   not intersect, under the context's assumptions. *)
let decide depth ctx (l1 : Lmad.t) (l2 : Lmad.t) : bool =
  let l1 = Lmad.map_polys (Pr.rewrite ctx) l1 in
  let l2 = Lmad.map_polys (Pr.rewrite ctx) l2 in
  if Lmad.is_empty_set ctx l1 || Lmad.is_empty_set ctx l2 then true
  else
    match (Lmad.normalize_set ctx l1, Lmad.normalize_set ctx l2) with
    | Some n1, Some n2 when Lmad.dims n1 = [] && Lmad.dims n2 = [] ->
        (* two single points: disjoint iff the offsets provably differ *)
        Pr.prove_nonzero ctx (P.sub (Lmad.offset n1) (Lmad.offset n2))
    | Some n1, Some n2 -> (
        let ss1 = List.map (fun d -> d.Lmad.s) (Lmad.dims n1) in
        let ss2 = List.map (fun d -> d.Lmad.s) (Lmad.dims n2) in
        match merge_bases ctx ss1 ss2 with
        | None -> false
        | Some basis -> (
            match (to_intervals ctx n1 basis, to_intervals ctx n2 basis) with
            | Some i1, Some i2 -> (
                let d = P.sub (Lmad.offset n1) (Lmad.offset n2) in
                match distribute ctx (Pr.rewrite ctx d) i1 i2 with
                | Distributed (i1, i2) -> disjoint_sums ctx depth i1 i2
                | Residue_disjoint -> true
                | Dist_fail -> false)
            | _ -> false))
    | _ -> false

(* A question is its split depth and its ordered pair of LMADs, equal
   when every offset, cardinal and stride is.  The order is kept: the
   test is not promised to be symmetric. *)
module Question = struct
  type t = int * Lmad.t * Lmad.t

  let equal (d1, a1, b1) (d2, a2, b2) =
    d1 = d2 && Lmad.equal a1 a2 && Lmad.equal b1 b2

  let hash (d, a, b) =
    let mix h x = (h * 65599) + x in
    let lmad l =
      List.fold_left
        (fun h dim -> mix (mix h (P.hash dim.Lmad.n)) (P.hash dim.Lmad.s))
        (P.hash (Lmad.offset l))
        (Lmad.dims l)
    in
    Hashtbl.hash (mix (mix d (lmad a)) (lmad b))
end

module Verdicts = Pr.Verdicts (Question)

(* [disjoint ctx l1 l2]: each question is decided once per context; the
   checkers that re-ask the passes' questions find their verdicts. *)
let disjoint ?(depth = 3) ctx l1 l2 =
  Verdicts.decide ctx (depth, l1, l2) (fun () -> decide depth ctx l1 l2)

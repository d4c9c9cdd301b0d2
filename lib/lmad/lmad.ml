(* Linear Memory Access Descriptors (paper, eq. (1)):

     t + {(n1 : s1), ..., (nq : sq)}
       = { t + i1*s1 + ... + iq*sq | 0 <= ik < nk }

   An LMAD plays two roles in this compiler (section III):
   - as an *index function*: a map from a q-dimensional index space to a
     flat offset inside a memory block, supporting O(1) change-of-layout
     operations (transposition, slicing, reversal, reshaping);
   - as an *abstract set* of flat memory offsets, the building block of
     the read/write summaries aggregated by the short-circuiting index
     analysis (section V-B).

   All offsets, strides and cardinals are symbolic polynomials, so one
   descriptor covers every concrete instantiation of the program sizes. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type dim = { n : P.t; s : P.t }
(* [n] is the cardinal (number of points), [s] the linearized stride. *)

type t = { off : P.t; dims : dim list }

(* ---------------------------------------------------------------- *)
(* Construction                                                      *)
(* ---------------------------------------------------------------- *)

let make off dims = { off; dims }
let dim n s = { n; s }

let rank l = List.length l.dims
let shape l = List.map (fun d -> d.n) l.dims
let offset l = l.off
let dims l = l.dims

(* Row-major index function for the given shape: strides are suffix
   products of the dimensions (the paper's R(d1,...,dq)). *)
let row_major ?(off = P.zero) shp =
  let rec strides = function
    | [] -> []
    | [ _ ] -> [ P.one ]
    | _ :: rest ->
        let ss = strides rest in
        (match (rest, ss) with
        | n :: _, s :: _ -> P.mul n s
        | _ -> assert false)
        :: ss
  in
  { off; dims = List.map2 (fun n s -> { n; s }) shp (strides shp) }

(* Column-major index function (the paper's C(d1,...,dq)): the stride
   of each dimension is the product of the dimensions before it, i.e.
   the row-major strides of the reversed shape, reversed. *)
let col_major ?(off = P.zero) shp =
  let rm = row_major (List.rev shp) in
  { off; dims = List.map2 (fun n d -> { n; s = d.s }) shp (List.rev rm.dims) }

let iota n = row_major [ n ]
let point off = { off; dims = [] }

(* ---------------------------------------------------------------- *)
(* Application                                                       *)
(* ---------------------------------------------------------------- *)

let apply l idxs =
  if List.length idxs <> rank l then
    invalid_arg "Lmad.apply: rank mismatch"
  else
    List.fold_left2
      (fun acc i d -> P.add acc (P.mul i d.s))
      l.off idxs l.dims

let apply_int (env : string -> int) l (idxs : int list) : int =
  P.eval env (apply l (List.map P.const idxs))

(* ---------------------------------------------------------------- *)
(* Change-of-layout transformations (section IV-B)                   *)
(* ---------------------------------------------------------------- *)

let permute perm l =
  if List.sort compare perm <> List.init (rank l) (fun i -> i) then
    invalid_arg "Lmad.permute: not a permutation";
  let arr = Array.of_list l.dims in
  { l with dims = List.map (fun i -> arr.(i)) perm }

let transpose l =
  match l.dims with
  | [ a; b ] -> { l with dims = [ b; a ] }
  | _ -> invalid_arg "Lmad.transpose: rank <> 2"

(* Reverse dimension [k]: the index function for reading the dimension
   backwards has a negative stride (footnote 13: this cannot be
   normalized away when used as an index function). *)
let reverse k l =
  {
    off =
      P.add l.off
        (P.mul (P.sub (List.nth l.dims k).n P.one) (List.nth l.dims k).s);
    dims =
      List.mapi
        (fun i d -> if i = k then { d with s = P.neg d.s } else d)
        l.dims;
  }

type slice_dim =
  | Fix of P.t (* drop the dimension, fixing the index *)
  | Range of { start : P.t; len : P.t; step : P.t }

let slice (sl : slice_dim list) l =
  if List.length sl <> rank l then invalid_arg "Lmad.slice: rank mismatch";
  let off =
    List.fold_left2
      (fun acc se d ->
        match se with
        | Fix i -> P.add acc (P.mul i d.s)
        | Range { start; _ } -> P.add acc (P.mul start d.s))
      l.off sl l.dims
  in
  let dims =
    List.concat
      (List.map2
         (fun se d ->
           match se with
           | Fix _ -> []
           | Range { len; step; _ } -> [ { n = len; s = P.mul step d.s } ])
         sl l.dims)
  in
  { off; dims }

(* Generalized LMAD slicing (section III-B): [slc] describes indices
   into the flat index space of a rank-1 array with layout [base]; the
   result selects those elements, forming new dimensions.  This is the
   operation behind the NW anti-diagonal slices W, Rvert, Rhoriz. *)
let lmad_slice ~(slc : t) (base : t) =
  match base.dims with
  | [ { s; _ } ] ->
      {
        off = P.add base.off (P.mul slc.off s);
        dims = List.map (fun d -> { d with s = P.mul d.s s }) slc.dims;
      }
  | _ -> invalid_arg "Lmad.lmad_slice: base must have rank 1"

(* Flattening: merge adjacent dimensions (i, i+1) when the outer stride
   equals inner-cardinal * inner-stride; this is the only reshape a
   single LMAD supports in general (section IV-B). *)
let merge_dims ctx (d1 : dim) (d2 : dim) : dim option =
  if Pr.prove_eq ctx d1.s (P.mul d2.n d2.s) then
    Some { n = P.mul d1.n d2.n; s = d2.s }
  else None

let flatten_all ctx l =
  let rec go = function
    | [] -> Some []
    | [ d ] -> Some [ d ]
    | d1 :: d2 :: rest -> (
        match go (d2 :: rest) with
        | Some (d2' :: rest') -> (
            match merge_dims ctx d1 d2' with
            | Some d -> Some (d :: rest')
            | None -> None)
        | _ -> None)
  in
  match l.dims with
  | [] -> Some { l with dims = [ { n = P.one; s = P.one } ] }
  | _ -> (
      match go l.dims with
      | Some [ d ] -> Some { l with dims = [ d ] }
      | _ -> None)

(* Split dimension [k] of cardinal a*b into two dimensions (a, b);
   valid for any LMAD since the stride structure is preserved. *)
let unflatten_dim k ~outer ~inner l =
  let rec go i = function
    | d :: rest when i = k ->
        { n = outer; s = P.mul inner d.s } :: { n = inner; s = d.s } :: rest
    | d :: rest -> d :: go (i - 1) rest
    | [] -> invalid_arg "Lmad.unflatten_dim: bad dimension"
  in
  { l with dims = go k l.dims }

(* Is this LMAD the row-major layout for its shape with offset 0? *)
let is_direct ctx l =
  let rm = row_major (shape l) in
  Pr.prove_eq ctx l.off P.zero
  && List.for_all2
       (fun d1 d2 -> Pr.prove_eq ctx d1.s d2.s)
       l.dims rm.dims

(* ---------------------------------------------------------------- *)
(* Abstract-set operations (section V-B)                             *)
(* ---------------------------------------------------------------- *)

(* Normalize to positive strides; valid only for the abstract-set view
   of an LMAD.  Fails (None) when a stride's sign cannot be decided.
   Zero-stride dimensions collapse to nothing (all points coincide). *)
let normalize_set ctx l =
  let rec go off acc = function
    | [] -> Some { off; dims = List.rev acc }
    | d :: rest -> (
        match Pr.sign ctx d.s with
        | Pr.Pos -> go off (d :: acc) rest
        | Pr.Zero -> go off acc rest
        | Pr.Neg ->
            go
              (P.add off (P.mul (P.sub d.n P.one) d.s))
              ({ d with s = P.neg d.s } :: acc)
              rest
        | Pr.Unknown -> None)
  in
  go l.off [] l.dims

(* Is the described set provably empty (some cardinal <= 0)? *)
let is_empty_set ctx l =
  List.exists (fun d -> Pr.prove_le ctx d.n P.zero) l.dims

(* Aggregate the set over a loop [for v = 0 .. count-1] (section II-B):
   if the offset is linear in [v] with coefficient [b] and [v] does not
   occur in the dimensions, promote a new dimension (count : b).

   When [v] occurs in a *cardinal*, footnote 8 applies: substitute the
   bound that maximizes the cardinal (the loop's upper bound when the
   cardinal grows with [v], its lower bound 0 otherwise), which
   overestimates the set - e.g. the triangular inner loops of LUD.
   Occurrence in a stride defeats aggregation (None). *)
let expand_loop ctx v ~count l =
  let hi = P.sub count P.one in
  let rec fix_cardinals acc = function
    | [] -> Some (List.rev acc)
    | d :: rest ->
        if P.mem_var v d.s then None
        else if not (P.mem_var v d.n) then fix_cardinals (d :: acc) rest
        else
          (* maximize the cardinal over v in [0, count-1] *)
          let grows =
            match P.linear_in v d.n with
            | Some (coeff, _) -> Pr.sign ctx coeff
            | None -> Pr.Unknown
          in
          let subst_to =
            match grows with
            | Pr.Pos -> Some hi
            | Pr.Neg -> Some P.zero
            | Pr.Zero -> Some P.zero
            | Pr.Unknown -> None
          in
          (match subst_to with
          | Some bnd ->
              fix_cardinals ({ d with n = P.subst v bnd d.n } :: acc) rest
          | None -> None)
  in
  match fix_cardinals [] l.dims with
  | None -> None
  | Some dims -> (
      match P.linear_in v l.off with
      | None -> None
      | Some (b, a) ->
          if P.is_zero b then Some { l with dims }
          else Some { off = a; dims = { n = count; s = b } :: dims })

(* Total number of points (product of cardinals). *)
let card l = P.prod (List.map (fun d -> d.n) l.dims)

(* Inclusive symbolic extrema of the point set: each dimension with a
   provably signed stride contributes (n-1)*s to one end.  Requires
   every cardinal provably >= 1, so that a claimed violation of the
   resulting bounds is a real out-of-bounds point, never an artifact of
   an empty dimension. *)
let bounds ctx (l : t) : (P.t * P.t) option =
  let rec go lo hi = function
    | [] -> Some (lo, hi)
    | { n; s } :: rest ->
        if not (Pr.prove_ge ctx n P.one) then None
        else
          let ext = P.mul (P.sub n P.one) s in
          (match Pr.sign ctx s with
          | Pr.Pos -> go lo (P.add hi ext) rest
          | Pr.Neg -> go (P.add lo ext) hi rest
          | Pr.Zero -> go lo hi rest
          | Pr.Unknown -> None)
  in
  go l.off l.off l.dims

(* ---------------------------------------------------------------- *)
(* Substitution, renaming, comparison                                 *)
(* ---------------------------------------------------------------- *)

let map_polys f l =
  { off = f l.off; dims = List.map (fun d -> { n = f d.n; s = f d.s }) l.dims }

let subst v by l = map_polys (P.subst v by) l
let subst_map env l = map_polys (P.subst_map env) l
let subst_fixpoint env l = map_polys (P.subst_fixpoint env) l
let rename f l = map_polys (P.rename f) l

let vars l =
  List.sort_uniq String.compare
    (P.vars l.off
    @ List.concat_map (fun d -> P.vars d.n @ P.vars d.s) l.dims)

let equal l1 l2 =
  P.equal l1.off l2.off
  && List.length l1.dims = List.length l2.dims
  && List.for_all2
       (fun d1 d2 -> P.equal d1.n d2.n && P.equal d1.s d2.s)
       l1.dims l2.dims

(* ---------------------------------------------------------------- *)
(* Concrete enumeration (for testing and the reference executor)     *)
(* ---------------------------------------------------------------- *)

(* ---------------------------------------------------------------- *)
(* Concrete LMADs                                                    *)
(* ---------------------------------------------------------------- *)

type concrete = { coff : int; cdims : (int * int) list }

let concretize (env : string -> int) l : concrete =
  {
    coff = P.eval env l.off;
    cdims = List.map (fun d -> (P.eval env d.n, P.eval env d.s)) l.dims;
  }

let concrete_points (c : concrete) : int list =
  let rec go acc = function
    | [] -> [ acc ]
    | (n, s) :: rest ->
        List.concat (List.init (max n 0) (fun i -> go (acc + (i * s)) rest))
  in
  go c.coff c.cdims

let concrete_card (c : concrete) : int =
  List.fold_left (fun acc (n, _) -> acc * max n 0) 1 c.cdims

let concrete_extrema (c : concrete) : (int * int) option =
  if List.exists (fun (n, _) -> n <= 0) c.cdims then None
  else
    Some
      (List.fold_left
         (fun (lo, hi) (n, s) ->
           let extent = (n - 1) * s in
           if extent >= 0 then (lo, hi + extent) else (lo + extent, hi))
         (c.coff, c.coff) c.cdims)

let pp_concrete ppf (c : concrete) =
  Fmt.pf ppf "%d + {%a}" c.coff
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
    c.cdims

let eval_points (env : string -> int) l : int list =
  concrete_points (concretize env l)

(* ---------------------------------------------------------------- *)
(* Printing                                                          *)
(* ---------------------------------------------------------------- *)

let pp_dim ppf d = Fmt.pf ppf "(%a : %a)" P.pp d.n P.pp d.s

let pp ppf l =
  Fmt.pf ppf "%a + {%a}" P.pp l.off
    Fmt.(list ~sep:(any ", ") pp_dim)
    l.dims

let to_string l = Fmt.str "%a" pp l

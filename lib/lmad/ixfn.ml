(* Index functions: the mapping from array indices to flat offsets in a
   memory block (section IV-A/IV-B).

   An index function is a nonempty chain of LMADs.  The head is the
   index-space side: its rank and cardinals are the logical shape of the
   array.  Applying an index works as in Fig. 3 of the paper: apply the
   head to the index to obtain an intermediate flat offset, unrank that
   offset with respect to the next LMAD's cardinals (row-major), apply
   that LMAD, and so on; the final result is the offset into memory.

   Most arrays have a single-LMAD index function; extra links appear
   only for reshapes that a single LMAD cannot express (e.g. flattening
   a column-major matrix), and unranking then costs a division and a
   modulo per link at run time - which is why the compiler avoids them. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type t = { chain : Lmad.t list (* nonempty; head = index-space side *) }

let of_lmad l = { chain = [ l ] }

let of_chain = function
  | [] -> invalid_arg "Ixfn.of_chain: empty chain"
  | ls -> { chain = ls }

let chain t = t.chain

let head t =
  match t.chain with l :: _ -> l | [] -> assert false

let is_single t = match t.chain with [ _ ] -> true | _ -> false

let row_major ?off shp = of_lmad (Lmad.row_major ?off shp)
let col_major ?off shp = of_lmad (Lmad.col_major ?off shp)

let rank t = Lmad.rank (head t)
let shape t = Lmad.shape (head t)

let map_head f t =
  match t.chain with
  | l :: rest -> { chain = f l :: rest }
  | [] -> assert false

(* ---------------------------------------------------------------- *)
(* Change-of-layout operations: all act on the head LMAD.            *)
(* ---------------------------------------------------------------- *)

let permute perm t = map_head (Lmad.permute perm) t
let transpose t = map_head Lmad.transpose t
let reverse k t = map_head (Lmad.reverse k) t
let slice sl t = map_head (Lmad.slice sl) t

(* A generalized LMAD slice applies to the *flat* view of the array:
   flatten the head first (possible iff the head is flattenable; if the
   array is fresh/row-major it always is), then compose. *)
let lmad_slice ctx ~slc t =
  match Lmad.flatten_all ctx (head t) with
  | Some flat -> Some (map_head (fun _ -> Lmad.lmad_slice ~slc flat) t)
  | None -> None

(* Reshape to [new_shape].  First try to express the reshape on the head
   LMAD itself (merging/splitting dimensions); if impossible, prepend a
   fresh row-major LMAD over the new shape, whose application is
   unranked into the old head (Fig. 3). *)
let reshape ctx new_shape t =
  let hd = head t in
  let direct =
    (* A reshape is expressible on one LMAD iff the head fully flattens
       (row-major-compatible layout); the flat dimension is then split
       back into the new shape from the left. *)
    match Lmad.flatten_all ctx hd with
    | Some flat ->
        let rec build l = function
          | [] | [ _ ] -> l
          | outer :: rest ->
              let inner_total = P.prod rest in
              let k = Lmad.rank l - 1 in
              build (Lmad.unflatten_dim k ~outer ~inner:inner_total l) rest
        in
        Some (build flat new_shape)
    | None -> None
  in
  match direct with
  | Some l -> { chain = l :: List.tl t.chain }
  | None ->
      (* Fall back to a multi-LMAD chain. *)
      let fresh = Lmad.row_major new_shape in
      { chain = fresh :: t.chain }

(* ---------------------------------------------------------------- *)
(* Application                                                       *)
(* ---------------------------------------------------------------- *)

(* Symbolic application is only defined for single-LMAD index functions
   (unranking needs division, which polynomials lack). *)
let apply_sym t idxs =
  match t.chain with
  | [ l ] -> Some (Lmad.apply l idxs)
  | _ -> None

(* Row-major unranking of flat offset [o] w.r.t. concrete [shape]. *)
let unrank o shape =
  let rec go o = function
    | [] -> []
    | [ _ ] -> [ o ]
    | _ :: rest ->
        let inner = List.fold_left ( * ) 1 rest in
        (o / inner) :: go (o mod inner) rest
  in
  go o shape

let apply_int (env : string -> int) t (idxs : int list) : int =
  match t.chain with
  | [] -> assert false
  | first :: rest ->
      let o = ref (Lmad.apply_int env first idxs) in
      List.iter
        (fun l ->
          let shp = List.map (P.eval env) (Lmad.shape l) in
          let digits = unrank !o shp in
          o := Lmad.apply_int env l digits)
        rest;
      !o

(* ---------------------------------------------------------------- *)
(* Queries, substitution                                             *)
(* ---------------------------------------------------------------- *)

let equal t1 t2 =
  List.length t1.chain = List.length t2.chain
  && List.for_all2 Lmad.equal t1.chain t2.chain

let is_direct ctx t =
  match t.chain with [ l ] -> Lmad.is_direct ctx l | _ -> false

let map_polys f t = { chain = List.map (Lmad.map_polys f) t.chain }
let subst v by t = map_polys (P.subst v by) t
let subst_map env t = map_polys (P.subst_map env) t

let subst_fixpoint env t =
  { chain = List.map (Lmad.subst_fixpoint env) t.chain }

let vars t =
  List.sort_uniq String.compare (List.concat_map Lmad.vars t.chain)

(* Number of elements addressed (product of head cardinals). *)
let card t = Lmad.card (head t)

(* ---------------------------------------------------------------- *)
(* The abstract set of memory offsets this index function (optionally
   restricted by a slice) can touch; Top when inexpressible
   (footnote 26: multi-LMAD index functions are overestimated).       *)
(* ---------------------------------------------------------------- *)

let accessed_set t : Lmad.t option =
  match t.chain with [ l ] -> Some l | _ -> None

let pp ppf t =
  match t.chain with
  | [ l ] -> Lmad.pp ppf l
  | ls -> Fmt.pf ppf "@[<h>%a@]" Fmt.(list ~sep:(any " o ") Lmad.pp) (List.rev ls)

let to_string t = Fmt.str "%a" pp t

(* Multivariate integer polynomials in normal form.

   A polynomial is a sorted list of monomials; a monomial is an integer
   coefficient together with a sorted power-product of named variables.
   This is the term language in which LMAD offsets, strides and cardinals
   are expressed, and in which the non-overlap inequalities of the paper
   (section V-C) are stated and discharged by [Prover].

   The normal form invariants are:
   - no monomial has coefficient 0;
   - within a monomial, variables are sorted by name and exponents are >= 1;
   - monomials are sorted in decreasing graded-lexicographic order;
   - no two monomials share a power-product. *)

module SM = Map.Make (String)

type mono = {
  coeff : int;
  pows : (string * int) list; (* sorted by variable name, exponents >= 1 *)
}

type t = mono list (* sorted by [compare_pows] descending, coeffs nonzero *)

(* ---------------------------------------------------------------- *)
(* Monomial ordering: graded lexicographic on power products.        *)
(* ---------------------------------------------------------------- *)

let degree_pows pows = List.fold_left (fun acc (_, e) -> acc + e) 0 pows

let rec lex_pows p1 p2 =
  match (p1, p2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (v1, e1) :: r1, (v2, e2) :: r2 ->
      (* Earlier variable names are "bigger" lexicographically. *)
      let c = compare v1 v2 in
      if c <> 0 then -c
      else
        let c = compare e1 e2 in
        if c <> 0 then c else lex_pows r1 r2

let compare_pows p1 p2 =
  let c = compare (degree_pows p1) (degree_pows p2) in
  if c <> 0 then c else lex_pows p1 p2

(* ---------------------------------------------------------------- *)
(* Construction                                                      *)
(* ---------------------------------------------------------------- *)

let zero : t = []
let is_zero (p : t) = p = []

let const c : t = if c = 0 then [] else [ { coeff = c; pows = [] } ]
let one = const 1

let var v : t = [ { coeff = 1; pows = [ (v, 1) ] } ]

(* Merge a list of monomials that may contain duplicates or zeros into
   normal form. *)
let normalize (ms : mono list) : t =
  let sorted =
    List.sort (fun m1 m2 -> compare_pows m2.pows m1.pows) ms
  in
  let rec merge = function
    | [] -> []
    | [ m ] -> if m.coeff = 0 then [] else [ m ]
    | m1 :: m2 :: rest ->
        if compare_pows m1.pows m2.pows = 0 then
          merge ({ m1 with coeff = m1.coeff + m2.coeff } :: rest)
        else if m1.coeff = 0 then merge (m2 :: rest)
        else m1 :: merge (m2 :: rest)
  in
  merge sorted

let monos (p : t) = p

(* ---------------------------------------------------------------- *)
(* Arithmetic                                                        *)
(* ---------------------------------------------------------------- *)

let neg (p : t) : t = List.map (fun m -> { m with coeff = -m.coeff }) p

let add (p : t) (q : t) : t =
  let rec go p q =
    match (p, q) with
    | [], q -> q
    | p, [] -> p
    | m1 :: r1, m2 :: r2 ->
        let c = compare_pows m1.pows m2.pows in
        if c > 0 then m1 :: go r1 q
        else if c < 0 then m2 :: go p r2
        else
          let coeff = m1.coeff + m2.coeff in
          if coeff = 0 then go r1 r2
          else { m1 with coeff } :: go r1 r2
  in
  go p q

let sub p q = add p (neg q)

let mul_pows pw1 pw2 =
  let rec go pw1 pw2 =
    match (pw1, pw2) with
    | [], pw | pw, [] -> pw
    | (v1, e1) :: r1, (v2, e2) :: r2 ->
        let c = compare v1 v2 in
        if c < 0 then (v1, e1) :: go r1 pw2
        else if c > 0 then (v2, e2) :: go pw1 r2
        else (v1, e1 + e2) :: go r1 r2
  in
  go pw1 pw2

let mul_mono m1 m2 =
  { coeff = m1.coeff * m2.coeff; pows = mul_pows m1.pows m2.pows }

let mul (p : t) (q : t) : t =
  normalize (List.concat_map (fun m1 -> List.map (mul_mono m1) q) p)

let scale c (p : t) : t =
  if c = 0 then []
  else List.map (fun m -> { m with coeff = c * m.coeff }) p

let rec pow (p : t) n =
  if n < 0 then invalid_arg "Poly.pow: negative exponent"
  else if n = 0 then one
  else mul p (pow p (n - 1))

let sum = List.fold_left add zero
let prod = List.fold_left mul one

(* Convenience infix module for building polynomials in client code. *)
module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( ~- ) = neg
end

(* ---------------------------------------------------------------- *)
(* Queries                                                           *)
(* ---------------------------------------------------------------- *)

let equal (p : t) (q : t) = is_zero (sub p q)

let compare (p : t) (q : t) : int =
  let rec go p q =
    match (p, q) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | m1 :: r1, m2 :: r2 ->
        let c = compare_pows m1.pows m2.pows in
        if c <> 0 then c
        else
          let c = Stdlib.compare m1.coeff m2.coeff in
          if c <> 0 then c else go r1 r2
  in
  go p q

(* Folds in every coefficient, variable and exponent of the normal form.
   The polymorphic [Hashtbl.hash] reads at most ten meaningful words, so
   on a monomial list it sees little beyond the leading monomial. *)
let hash (p : t) =
  let mix h x = (h * 65599) + x in
  Hashtbl.hash
    (List.fold_left
       (fun h m ->
         List.fold_left
           (fun h (v, e) -> mix (mix h (Hashtbl.hash v)) e)
           (mix h m.coeff) m.pows)
       0 p)

let to_const_opt = function
  | [] -> Some 0
  | [ { coeff; pows = [] } ] -> Some coeff
  | _ -> None

let is_const p = to_const_opt p <> None

let degree = function [] -> 0 | m :: _ -> degree_pows m.pows

let vars (p : t) : string list =
  List.sort_uniq String.compare
    (List.concat_map (fun m -> List.map fst m.pows) p)

let mem_var v (p : t) =
  List.exists (fun m -> List.mem_assoc v m.pows) p

(* Maximum exponent of [v] in [p]. *)
let degree_in v (p : t) =
  List.fold_left
    (fun acc m ->
      match List.assoc_opt v m.pows with
      | Some e -> max acc e
      | None -> acc)
    0 p

(* ---------------------------------------------------------------- *)
(* Substitution and evaluation                                       *)
(* ---------------------------------------------------------------- *)

let subst (v : string) (by : t) (p : t) : t =
  let subst_mono m =
    match List.assoc_opt v m.pows with
    | None -> [ m ]
    | Some e ->
        let rest = List.remove_assoc v m.pows in
        mul [ { coeff = m.coeff; pows = rest } ] (pow by e)
  in
  normalize (List.concat_map subst_mono p)

let subst_map (env : t SM.t) (p : t) : t =
  SM.fold subst env p

(* Substitute to a fixpoint: keys of [env] may appear in the images of
   other keys.  Used by the index-function translation of section V-A(b).
   Raises [Failure] if no fixpoint is reached within [fuel] rounds,
   which indicates a substitution cycle. *)
let subst_fixpoint ?(fuel = 32) (env : t SM.t) (p : t) : t =
  let keys = SM.bindings env |> List.map fst in
  let rec go fuel p =
    if fuel = 0 then failwith "Poly.subst_fixpoint: no fixpoint (cycle?)"
    else
      let p' = subst_map env p in
      if equal p p' then p
      else if List.exists (fun k -> mem_var k p') keys then go (fuel - 1) p'
      else p'
  in
  go fuel p

let eval (env : string -> int) (p : t) : int =
  List.fold_left
    (fun acc m ->
      let v =
        List.fold_left
          (fun acc (x, e) ->
            let xv = env x in
            let rec pw acc e = if e = 0 then acc else pw (acc * xv) (e - 1) in
            pw acc e)
          m.coeff m.pows
      in
      acc + v)
    0 p

let rename (f : string -> string) (p : t) : t =
  normalize
    (List.map
       (fun m ->
         {
           m with
           pows =
             List.sort
               (fun (a, _) (b, _) -> String.compare a b)
               (List.map (fun (v, e) -> (f v, e)) m.pows);
         })
       p)

(* ---------------------------------------------------------------- *)
(* Linear decomposition                                              *)
(* ---------------------------------------------------------------- *)

(* Decompose [p] as [a * v + b] where neither [a] nor [b] mentions [v].
   Returns [None] when [p] is not linear in [v]. Central to LMAD
   aggregation across loops (section II-B): the coefficient [a] becomes
   the stride of the promoted dimension. *)
let linear_in (v : string) (p : t) : (t * t) option =
  if degree_in v p > 1 then None
  else
    let coef, rest =
      List.partition (fun m -> List.mem_assoc v m.pows) p
    in
    let a =
      List.map
        (fun m -> { m with pows = List.remove_assoc v m.pows })
        coef
      |> normalize
    in
    if mem_var v a then None else Some (a, rest)

(* Coefficient polynomials of each power of [v]: result.(k) multiplies
   v^k.  Used by the prover's variable-elimination step. *)
let coeffs_in (v : string) (p : t) : t array =
  let d = degree_in v p in
  let cs = Array.make (d + 1) zero in
  List.iter
    (fun m ->
      let e = Option.value ~default:0 (List.assoc_opt v m.pows) in
      let m' = { m with pows = List.remove_assoc v m.pows } in
      cs.(e) <- add cs.(e) [ m' ])
    p;
  Array.map normalize (Array.map (fun x -> x) cs)

(* ---------------------------------------------------------------- *)
(* Monomial division (used by the non-overlap offset distribution)    *)
(* ---------------------------------------------------------------- *)

(* [div_mono m1 m2] is [Some q] with [m1 = q * m2] when the power
   product and coefficient of [m2] divide those of [m1]. *)
let div_mono (m1 : mono) (m2 : mono) : mono option =
  if m2.coeff = 0 || m1.coeff mod m2.coeff <> 0 then None
  else
    let rec div_pows p1 p2 =
      match p2 with
      | [] -> Some p1
      | (v, e2) :: r2 -> (
          match List.assoc_opt v p1 with
          | Some e1 when e1 > e2 ->
              Option.map
                (fun rest ->
                  List.sort
                    (fun (a, _) (b, _) -> String.compare a b)
                    ((v, e1 - e2) :: rest))
                (div_pows (List.remove_assoc v p1) r2)
          | Some e1 when e1 = e2 -> div_pows (List.remove_assoc v p1) r2
          | _ -> None)
    in
    Option.map
      (fun pows -> { coeff = m1.coeff / m2.coeff; pows })
      (div_pows m1.pows m2.pows)

(* Multivariate division of [p] by [d]: returns [(q, r)] with
   [p = q*d + r] where no monomial of [r] is divisible by the leading
   monomial of [d].  Standard single-divisor reduction. *)
let div_rem (p : t) (d : t) : t * t =
  match d with
  | [] -> invalid_arg "Poly.div_rem: division by zero"
  | lead_d :: _ ->
      let rec go p q r fuel =
        if fuel = 0 then (q, add r p)
        else
          match p with
          | [] -> (q, r)
          | m :: rest -> (
              match div_mono m lead_d with
              | Some qm ->
                  let qp = [ qm ] in
                  go (sub rest (mul qp (List.tl d))) (add q qp) r (fuel - 1)
              | None -> go rest q (add r [ m ]) (fuel - 1))
      in
      let q, r = go p zero zero 200 in
      (normalize q, normalize r)

(* ---------------------------------------------------------------- *)
(* Printing                                                          *)
(* ---------------------------------------------------------------- *)

let pp_mono ppf (m : mono) =
  let pp_pows ppf pows =
    Fmt.(list ~sep:(any "*"))
      (fun ppf (v, e) ->
        if e = 1 then Fmt.string ppf v else Fmt.pf ppf "%s^%d" v e)
      ppf pows
  in
  match (m.coeff, m.pows) with
  | c, [] -> Fmt.int ppf c
  | 1, pows -> pp_pows ppf pows
  | -1, pows -> Fmt.pf ppf "-%a" pp_pows pows
  | c, pows -> Fmt.pf ppf "%d*%a" c pp_pows pows

let pp ppf (p : t) =
  match p with
  | [] -> Fmt.string ppf "0"
  | m :: rest ->
      pp_mono ppf m;
      List.iter
        (fun m ->
          if m.coeff >= 0 then Fmt.pf ppf " + %a" pp_mono m
          else Fmt.pf ppf " - %a" pp_mono { m with coeff = -m.coeff })
        rest

let to_string p = Fmt.str "%a" pp p

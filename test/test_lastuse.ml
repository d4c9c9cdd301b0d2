(* Tests for the last-use and alias analyses against the string-set
   definitions they replaced.

   The reference ([Ref]) keeps both analyses as they were written over
   [Set.Make(String)] and [Map.Make(String)]: an alias class stored
   again under every member, and last uses computed from each
   statement's free variables ({!Ir.Ast.fv_stm_with}), filtered to the
   names that can close to an array.  On every statement and binder of
   the seven paper programs at every pipeline stage (test_fv's
   [stages]), and of the certify and pack generators' programs,
   {!Core.Lastuse.annotate} must write the reference's [last_uses], and
   {!Core.Alias.closure} must equal the reference's closure at every
   binder: the program's parameters, the pattern elements and the loop
   parameters. *)

open Ir
open Ast
module P = Symalg.Poly
module B = Build

(* ---------------------------------------------------------------- *)
(* The reference                                                     *)
(* ---------------------------------------------------------------- *)

module Ref = struct
  module Alias = struct
    module SM = Map.Make (String)

    type t = SS.t SM.t

    let closure (m : t) v =
      match SM.find_opt v m with
      | Some s -> SS.add v s
      | None -> SS.singleton v

    let add_alias (m : t) v targets =
      let cls =
        SS.fold
          (fun w acc -> SS.union acc (closure m w))
          targets (SS.singleton v)
      in
      SS.fold (fun w acc -> SM.add w (SS.remove w cls) acc) cls m

    let opt_set a =
      Option.fold ~none:SS.empty ~some:SS.singleton (atom_var a)

    let result_aliases (e : exp) : SS.t list option =
      match e with
      | EAtom (Var v) -> Some [ SS.singleton v ]
      | ESlice (v, _) | ETranspose (v, _) | EReshape (v, _) | EReverse (v, _)
        ->
          Some [ SS.singleton v ]
      | EUpdate { dst; _ } -> Some [ SS.singleton dst ]
      | EIf { tb; fb; _ } ->
          Some
            (List.map2 (fun a b -> SS.union (opt_set a) (opt_set b)) tb.res
               fb.res)
      | ELoop { params; body; _ } ->
          Some
            (List.map2
               (fun (_, init) r -> SS.union (opt_set init) (opt_set r))
               params body.res)
      | _ -> None

    let rec analyze_block (m : t) (b : block) : t =
      List.fold_left analyze_stm m b.stms

    and analyze_stm (m : t) (s : stm) : t =
      let m =
        match s.exp with
        | EMap { body; _ } -> analyze_block m body
        | ELoop { params; body; _ } ->
            let m = analyze_block m body in
            List.fold_left
              (fun m ((pe, init), r) ->
                if is_array_typ pe.pt then
                  add_alias m pe.pv (SS.union (opt_set init) (opt_set r))
                else m)
              m
              (List.combine params body.res)
        | EIf { tb; fb; _ } -> analyze_block (analyze_block m tb) fb
        | _ -> m
      in
      match result_aliases s.exp with
      | None -> m
      | Some sets ->
          if List.length sets <> List.length s.pat then m
          else
            List.fold_left2
              (fun m pe tgts ->
                if is_array_typ pe.pt && not (SS.is_empty tgts) then
                  add_alias m pe.pv tgts
                else m)
              m s.pat sets

    let of_prog (p : prog) : t = analyze_block SM.empty p.body
  end

  module Lastuse = struct
    type node = { stm : stm; uses : SS.t; subs : (SS.t * summary) list }
    and summary = { rev : node list; res_uses : SS.t }

    let rec record_types types (b : block) =
      List.iter
        (fun s ->
          List.iter (fun pe -> Hashtbl.replace types pe.pv pe.pt) s.pat;
          match s.exp with
          | EMap { nest; body } ->
              List.iter (fun (v, _) -> Hashtbl.replace types v i64) nest;
              record_types types body
          | ELoop { params; body; var; _ } ->
              Hashtbl.replace types var i64;
              List.iter
                (fun (pe, _) -> Hashtbl.replace types pe.pv pe.pt)
                params;
              record_types types body
          | EIf { tb; fb; _ } ->
              record_types types tb;
              record_types types fb
          | _ -> ())
        b.stms

    let rec summarize ~keep ~arrays (b : block) : SS.t * summary =
      let rev = ref [] in
      let fv =
        fv_block_with
          (fun s ->
            let fv, n = node ~keep ~arrays s in
            rev := n :: !rev;
            fv)
          b
      in
      let res = SS.of_list (List.filter_map atom_var b.res) in
      (fv, { rev = !rev; res_uses = arrays res })

    and node ~keep ~arrays (s : stm) : SS.t * node =
      let subs = ref [] in
      let fv =
        keep
          (fv_stm_with
             (fun body ->
               let fv, sum = summarize ~keep ~arrays body in
               let live =
                 match s.exp with
                 | ELoop _ | EMap _ -> arrays fv
                 | _ -> SS.empty
               in
               subs := (live, sum) :: !subs;
               fv)
             s)
      in
      (fv, { stm = s; uses = arrays fv; subs = List.rev !subs })

    let rec assign ~used_after (sum : summary) : unit =
      ignore
        (List.fold_left
           (fun later n ->
             List.iter
               (fun (live, sub) ->
                 assign ~used_after:(SS.union later live) sub)
               n.subs;
             n.stm.last_uses <- SS.elements (SS.diff n.uses later);
             SS.union later n.uses)
           (SS.union used_after sum.res_uses)
           sum.rev)

    let annotate (p : prog) : Alias.t =
      let aliases = Alias.of_prog p in
      let types = Hashtbl.create 64 in
      List.iter (fun pe -> Hashtbl.replace types pe.pv pe.pt) p.params;
      record_types types p.body;
      let is_array v =
        match Hashtbl.find_opt types v with
        | Some t -> is_array_typ t
        | None -> false
      in
      let keep = SS.filter (fun v -> is_array v || Alias.SM.mem v aliases) in
      let arrays vs =
        SS.fold
          (fun v acc ->
            SS.union (SS.filter is_array (Alias.closure aliases v)) acc)
          vs SS.empty
      in
      let _, sum = summarize ~keep ~arrays p.body in
      assign ~used_after:SS.empty sum;
      aliases
  end
end

(* ---------------------------------------------------------------- *)
(* The oracle                                                        *)
(* ---------------------------------------------------------------- *)

let pp_list = Fmt.(brackets (list ~sep:semi string))
let stm_name s = match s.pat with pe :: _ -> pe.pv | [] -> "<no binder>"

let binders (p : prog) =
  List.map (fun pe -> pe.pv) p.params
  @ List.concat_map
      (fun s ->
        List.map (fun pe -> pe.pv) s.pat
        @
        match s.exp with
        | ELoop { params; _ } -> List.map (fun (pe, _) -> pe.pv) params
        | _ -> [])
      (all_stms_block p.body)

(* Annotate two clones of [p], one with each analysis, and compare
   every statement's last uses and every binder's alias class. *)
let check_prog what (p : prog) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let got = Clone.clone_prog p and want = Clone.clone_prog p in
  let aliases = Core.Lastuse.annotate got in
  let ref_aliases = Ref.Lastuse.annotate want in
  List.iter2
    (fun s r ->
      if s.last_uses <> r.last_uses then
        fail "last uses of %s: %a, reference %a" (stm_name s) pp_list
          s.last_uses pp_list r.last_uses)
    (all_stms_block got.body)
    (all_stms_block want.body);
  List.iter
    (fun v ->
      let c = Core.Alias.closure aliases v
      and r = Ref.Alias.closure ref_aliases v in
      if not (SS.equal c r) then
        fail "closure of %s: %a, reference %a" v pp_list (SS.elements c)
          pp_list (SS.elements r))
    (binders got)

let check_stages name src =
  List.iter
    (fun (stage, p) -> check_prog (Printf.sprintf "%s at %s" name stage) p)
    (Test_fv.stages src)

let test_paper_programs () =
  List.iter
    (fun { Benchsuite.Runner.name; prog; _ } -> check_stages name prog)
    Benchsuite.Suite.all

(* An inner loop that reads its parameter [p] and returns the enclosing
   loop's parameter [q].  The inner loop puts [p] and [q] in one class;
   [q]'s own binding, made after the outer body, starts a class without
   [p], and the outer body returns a fresh map.  So no array the inner
   body returns or the outer body uses after the inner loop aliases
   [p]: only the inner body's live set, taken before [p] is cleared
   from it, keeps [p] live at its read. *)
let returns_outer_param () =
  let n = Test_certify.n in
  B.prog "outerret" ~ctx:Test_certify.ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let q0 = Test_certify.fill b "q0" n 0.0 in
      let outer =
        B.loop1 b "q" (arr F64 [ n ]) (Var q0) ~bound:(P.const 2)
          (fun bb ~param:q ~i:_ ->
            let i0 = Test_certify.fill bb "i0" n 1.0 in
            ignore
              (B.loop1 bb "p" (arr F64 [ n ]) (Var i0) ~bound:(P.const 2)
                 (fun b3 ~param:p ~i:_ ->
                   ignore (B.index b3 p [ P.zero ]);
                   Var q));
            let iv = B.fresh bb "i" in
            Var
              (B.mapnest bb "t" [ (iv, n) ] (fun b3 ->
                   [ B.fadd b3 (B.index b3 q [ P.var iv ]) (Float 1.0) ])))
      in
      [ Var outer ])

let test_returns_outer_param () =
  check_stages "outerret" (returns_outer_param ())

let prop_generated_programs =
  QCheck.Test.make ~name:"last uses and alias classes agree with the reference"
    ~count:(Qcount.count 6)
    (QCheck.make
       ~print:(fun (k, bound, mode) ->
         Printf.sprintf "k=%d bound=%d mode=%d" k bound mode)
       QCheck.Gen.(triple (int_range 2 4) (int_range 2 4) (int_range 0 2)))
    (fun (k, bound, mode) ->
      check_stages "chain" (Test_certify.gen_chain k);
      check_stages "siblings" (Test_certify.gen_siblings (k - 1) bound);
      check_stages "cond" (Test_certify.gen_cond mode bound);
      check_stages "pack" (Test_pack.gen_pack k);
      check_stages "phased" (Test_pack.gen_phased (k - 1) k);
      true)

(* The bitsets against sorted lists, over several words: [iter] and
   [iter_diff] visit members in increasing order, top bits included. *)
let prop_bitset =
  let module Bs = Core.Bitset in
  QCheck.Test.make ~name:"bitsets equal sorted lists" ~count:(Qcount.count 200)
    QCheck.(
      triple (int_range 1 200)
        (small_list (int_bound 199))
        (small_list (int_bound 199)))
    (fun (n, xs, ys) ->
      (* 62 and 125: the top bits of the first two words *)
      let xs =
        List.sort_uniq compare (List.filter (fun i -> i < n) (62 :: 125 :: xs))
      and ys = List.sort_uniq compare (List.filter (fun i -> i < n) ys) in
      let of_list l =
        let s = Bs.create n in
        List.iter (Bs.add s) l;
        s
      in
      let elements s =
        let l = ref [] in
        Bs.iter (fun i -> l := i :: !l) s;
        List.rev !l
      in
      let a = of_list xs and b = of_list ys in
      let inter = of_list xs and removed = of_list xs in
      Bs.inter_into inter b;
      List.iter (Bs.remove removed) ys;
      let diff = List.filter (fun x -> not (List.mem x ys)) xs in
      let visited = ref [] in
      Bs.iter_diff (fun i -> visited := i :: !visited) a b;
      elements a = xs
      && elements (Bs.union a b) = List.sort_uniq compare (xs @ ys)
      && elements inter = List.filter (fun x -> List.mem x ys) xs
      && elements removed = diff
      && List.rev !visited = diff)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_bitset;
    Alcotest.test_case
      "paper programs: last uses and alias classes equal the reference" `Quick
      test_paper_programs;
    QCheck_alcotest.to_alcotest prop_generated_programs;
    Alcotest.test_case
      "a loop returning the enclosing loop's parameter equals the reference"
      `Quick test_returns_outer_param;
  ]

(* Memtrace: the dynamic sibling of Memlint.

   Memlint proves, statically, that the memory annotations are
   consistent; this module checks that an *execution* stayed inside
   them.  It replays a Trace.t (collected by Gpu.Exec.run ~trace:true)
   and cross-checks three claims the whole optimization story rests
   on:

   - footprint: every offset a kernel actually wrote (read) lies in
     the union of its declared, statically-annotated write (read)
     regions - the LMAD reference sets soundly over-approximate the
     runtime accesses;
   - circuit: every copy the executor elided really was a no-op (the
     source and destination images coincide, element for element), and
     every copy it did perform within one block moved between disjoint
     regions (overlap would make the element order observable);
   - last-use: no kernel or copy reads a block's dead contents - after
     the last last-use marker of the arrays living in it and before
     any overwrite - so the liveness the short-circuiting pass relied
     on was real.

   All three are exact checks over concrete integers: unlike the
   static linter there is no Undecided verdict.  What *can* limit
   coverage is the trace itself: declared regions that mention
   per-thread variables degrade to whole-block claims, and blocks
   allocated inside a kernel (thread-private scratch) are exempt; both
   are tallied as "assumed" so a report says how much was actually
   proven. *)

module IS = Set.Make (Int)

type violation = {
  rule : string; (* footprint | circuit | last-use *)
  at : string; (* kernel label / copy description *)
  detail : string;
}

type report = {
  program : string;
  variant : string;
  kernels : int;
  copies : int;
  elided : int;
  offsets_checked : int; (* accesses confirmed inside a declared region *)
  offsets_assumed : int; (* covered only by a whole-block or fresh claim *)
  violations : violation list;
}

let ok r = r.violations = []

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %s" v.rule v.at v.detail

let pp_report ppf r =
  let verdict =
    if ok r then Fmt.styled (`Fg `Green) Fmt.string
    else Fmt.styled (`Fg `Red) Fmt.string
  in
  Fmt.pf ppf
    "@[<v2>memtrace %s (%s): %a@,\
     kernels %d, copies %d (%d elided), offsets: %d checked, %d assumed"
    r.program r.variant verdict
    (if ok r then "clean" else "VIOLATIONS")
    r.kernels r.copies r.elided r.offsets_checked r.offsets_assumed;
  List.iter (fun v -> Fmt.pf ppf "@,- %a" pp_violation v) r.violations;
  Fmt.pf ppf "@]"

(* ---------------------------------------------------------------- *)
(* The checks                                                        *)
(* ---------------------------------------------------------------- *)

(* The declared claim on one block: the union of the enumerable
   regions, plus a flag for footprints that degraded to whole-block
   (those allow anywhere in the block, so offsets outside the
   enumerable part are merely "assumed", never violations). *)
let allowed_set (fps : Trace.footprint list) (bid : int) :
    IS.t * (* has_whole_block *) bool =
  List.fold_left
    (fun ((s, whole) as acc) f ->
      if f.Trace.fbid <> bid then acc
      else
        match f.Trace.fregion with
        | None -> (s, true)
        | Some ls ->
            ( List.fold_left
                (fun s l ->
                  List.fold_left
                    (fun s o -> IS.add o s)
                    s
                    (Lmads.Lmad.concrete_points l))
                s ls,
              whole ))
    (IS.empty, false) fps

let mentions (fps : Trace.footprint list) bid =
  List.exists (fun f -> f.Trace.fbid = bid) fps

let check_kernel ~checked ~assumed ~violations (k : Trace.kernel) =
  let is_fresh bid = List.mem bid k.Trace.fresh in
  let check_side side declared (touched : (int * int list) list) =
    List.iter
      (fun (bid, offs) ->
        if is_fresh bid then assumed := !assumed + List.length offs
        else if not (mentions declared bid) then
          violations :=
            {
              rule = "footprint";
              at = k.Trace.klabel;
              detail =
                Printf.sprintf
                  "kernel %s blk%d (%d offsets) without declaring any %s \
                   region there"
                  side bid (List.length offs) side;
            }
            :: !violations
        else
          let allow, whole = allowed_set declared bid in
          let inside, outside =
            List.partition (fun o -> IS.mem o allow) offs
          in
          checked := !checked + List.length inside;
          if whole then assumed := !assumed + List.length outside
          else if outside <> [] then
            violations :=
              {
                rule = "footprint";
                at = k.Trace.klabel;
                detail =
                  Printf.sprintf
                    "%d %s offset(s) of blk%d escape the declared region \
                     (first: %d)"
                    (List.length outside) side bid (List.hd outside);
              }
              :: !violations)
      touched
  in
  check_side "write" k.Trace.declared_writes k.Trace.writes;
  (* a kernel may read back what it declared it would write *)
  check_side "read"
    (k.Trace.declared_reads @ k.Trace.declared_writes)
    k.Trace.reads

let describe_copy (c : Trace.copy) =
  Printf.sprintf "copy blk%d->blk%d (%.0fB)" c.Trace.csrc c.Trace.cdst
    c.Trace.cbytes

let check_copy ~violations (c : Trace.copy) =
  let open Trace in
  if c.celided then begin
    if c.csrc <> c.cdst then
      violations :=
        {
          rule = "circuit";
          at = describe_copy c;
          detail = "elided although source and destination blocks differ";
        }
        :: !violations
    else
      let si = Trace.image c.csix c.cshape
      and di = Trace.image c.cdix c.cshape in
      if si <> di then
        violations :=
          {
            rule = "circuit";
            at = describe_copy c;
            detail =
              Printf.sprintf
                "elided but images differ (%d vs %d offsets; src first %d, \
                 dst first %d)"
                (List.length si) (List.length di)
                (match si with o :: _ -> o | [] -> -1)
                (match di with o :: _ -> o | [] -> -1);
          }
          :: !violations
  end
  else if c.csrc = c.cdst then begin
    let si = IS.of_list (Trace.image c.csix c.cshape)
    and di = IS.of_list (Trace.image c.cdix c.cshape) in
    let inter = IS.inter si di in
    if not (IS.is_empty inter) then
      violations :=
        {
          rule = "circuit";
          at = describe_copy c;
          detail =
            Printf.sprintf
              "performed copy within one block overlaps itself (%d shared \
               offsets, first %d)"
              (IS.cardinal inter) (IS.min_elt inter);
        }
        :: !violations
  end

(* Last-use: a block's *contents* are dead after the final last-use
   marker that mentions it.  Short-circuiting reuses dead blocks on
   purpose, so a later write legitimately revives the block - the
   violation is reading dead contents *before* anything overwrote
   them.  A kernel that both reads and writes a block is treated as
   the reviver (its reads may be of its own writes; intra-kernel
   ordering is not traced). *)
let check_last_uses ~violations (events : Trace.event list) =
  let death = Hashtbl.create 16 in
  List.iteri
    (fun i e ->
      match e with
      | Trace.Last_use { bid; _ } -> Hashtbl.replace death bid i
      | _ -> ())
    events;
  let revived = Hashtbl.create 16 in
  List.iteri
    (fun i e ->
      (* past the final marker for bid (regardless of revival) *)
      let past_death bid =
        match Hashtbl.find_opt death bid with
        | Some d -> i > d
        | None -> false
      in
      let dead bid = past_death bid && not (Hashtbl.mem revived bid) in
      (* only a write *after* the death counts as a revival *)
      let revive bid = if past_death bid then Hashtbl.replace revived bid () in
      match e with
      | Trace.Kernel k ->
          let writes bid =
            List.exists
              (fun (b, offs) -> b = bid && offs <> [])
              k.Trace.writes
          in
          List.iter
            (fun (bid, offs) ->
              if offs <> [] && dead bid && not (writes bid) then
                violations :=
                  {
                    rule = "last-use";
                    at = k.Trace.klabel;
                    detail =
                      Printf.sprintf
                        "kernel reads blk%d after its last static use \
                         (contents never overwritten)"
                        bid;
                  }
                  :: !violations)
            k.Trace.reads;
          List.iter
            (fun (bid, offs) -> if offs <> [] then revive bid)
            k.Trace.writes
      | Trace.Copy c ->
          if (not c.Trace.celided) && dead c.Trace.csrc then
            violations :=
              {
                rule = "last-use";
                at = describe_copy c;
                detail =
                  Printf.sprintf
                    "copy reads blk%d after its last static use (contents \
                     never overwritten)"
                    c.Trace.csrc;
              }
              :: !violations;
          (* an elided copy redefines the destination logically - its
             new value is, by the elision proof, already in place *)
          revive c.Trace.cdst
      | _ -> ())
    events

(* ---------------------------------------------------------------- *)
(* Entry                                                             *)
(* ---------------------------------------------------------------- *)

let check (t : Trace.t) : report =
  let checked = ref 0 and assumed = ref 0 in
  let violations = ref [] in
  let events = Trace.events t in
  List.iter
    (fun e ->
      match e with
      | Trace.Kernel k -> check_kernel ~checked ~assumed ~violations k
      | Trace.Copy c -> check_copy ~violations c
      | _ -> ())
    events;
  check_last_uses ~violations events;
  let copies = Trace.copies t in
  {
    program = Trace.program t;
    variant = Trace.variant t;
    kernels = List.length (Trace.kernels t);
    copies = List.length copies;
    elided = List.length (List.filter (fun c -> c.Trace.celided) copies);
    offsets_checked = !checked;
    offsets_assumed = !assumed;
    violations = List.rev !violations;
  }

(* The memory-aware executor: runs a memory-annotated program against
   the GPU cost model.

   Unlike the reference interpreter (which materializes every view and
   ignores annotations), this executor honours memory blocks and index
   functions exactly: arrays are (block, concrete index function) pairs,
   change-of-layout operations cost nothing, and the copies at updates,
   concats, [copy], and mapnest result writes are *elided* whenever the
   source already lives at the destination location - which is
   precisely what the short-circuiting pass arranges.  The executor is
   therefore both the validation vehicle (full mode: computed values
   must match the reference interpreter) and the measurement vehicle
   (cost-only mode at paper-scale sizes: counted traffic feeds the
   device time model).

   Cost-only mode executes control flow and scalar sizes exactly but
   samples each mapnest body once (at the midpoint of its index space)
   and scales the measured per-thread cost by the thread count; byte
   counts for copies and slices are exact since they derive from
   shapes.  This is accurate for thread-uniform bodies and for bodies
   whose cost is linear in the thread index (wavefront/triangular
   workloads), which covers the benchmark suite.

   Variables live in one frame per run.  Before executing, [run] walks
   the program once with a lexical scope and gives every binder
   occurrence - parameters and their memory blocks, pattern elements,
   loop parameters and counters, mapnest indices - its own slot of an
   [aval array].  It rewrites every use to its slot: atoms, array and
   block operands, last-use markers, and every variable of every index
   polynomial, which is compiled to a slot-indexed sum of products.  The
   same walk records once the facts a run would otherwise re-derive
   at every execution: a mapnest's declared reads and destinations in
   its launch scope, the blocks a lexical block's results live in, and
   which loops carry an integer.  Scoping is lexical ([exec_block]
   returns values, never bindings), so a slot is always written before
   it is read.  A name no binder in scope defines resolves to an
   unbound reference, which raises [Exec_error] only if the run
   evaluates it.  Block ids are numbered per run, from 1, so a run is a
   pure function of (program, arguments): running a program twice in
   one process gives equal counters and byte-identical traces. *)

open Ir.Ast
module P = Symalg.Poly
module Ixfn = Lmads.Ixfn
module Lmad = Lmads.Lmad
module Trace = Core.Trace
module Scope = Map.Make (String)
module Value = Ir.Value

exception Exec_error of string

let err fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

type mode = Full | Cost_only

(* Fault injection for testing the dynamic checker: [Off_by_one_write]
   shifts every in-kernel cell write by one element.  The static
   annotations are untouched, so memlint still passes - only the
   {!Core.Memtrace} cross-check of a traced run can observe the bug. *)
type mutation = Off_by_one_write

(* ---------------------------------------------------------------- *)
(* Concrete memory                                                   *)
(* ---------------------------------------------------------------- *)

type payload = PF of float array | PI of int array | PB of bool array

type blockv = {
  bid : int; (* unique id *)
  bname : string;
  bsize : int; (* elements *)
  mutable payload : payload option; (* lazily materialized (Full mode) *)
  mutable devbytes : float;
      (* device bytes the pool served for this block; 0 when the block
         is not pool-owned (inputs, scratch, pool disabled) *)
  mutable freed : bool; (* currently sitting on a pool free list *)
}

(* Concrete index function: integer offsets/cardinals/strides.  The
   constituent LMADs are {!Lmads.Lmad.concrete}, shared with the trace
   events so footprints flow into {!Core.Trace} without conversion. *)
type clmad = Lmad.concrete = {
  coff : int;
  cdims : (int * int) list; (* card, stride *)
}

type cixfn = clmad list (* head first, memory side last *)

type arrv = { elt : sct; shape : int list; block : blockv; ix : cixfn }

type aval =
  | AInt of int
  | AFloat of float
  | ABool of bool
  | AMem of blockv
  | AArr of arrv

(* ---------------------------------------------------------------- *)
(* Resolved programs                                                 *)
(* ---------------------------------------------------------------- *)

(* A variable reference resolved to its binder's frame slot.  A
   negative reference stands for a name no binder in scope defines
   (entry [-1 - r] of the run's unbound names). *)
type slot = int

(* An index polynomial over frame slots: a sum of monomials, each a
   coefficient times one factor per unit of exponent. *)
type cmono = { coeff : int; factors : slot array }
type cpoly = cmono array
type rlmad = { roff : cpoly; rdims : (cpoly * cpoly) list }
type ratom = Slot of slot | Const of aval

(* One dimension of a triplet slice: over polynomials when resolved,
   over integers when concrete. *)
type 'i sdim = DFix of 'i | DRange of 'i * 'i * 'i (* start, len, step *)

type rslice = RTriplet of cpoly sdim list | RLmad of rlmad

(* A pattern element: where the statement binds it, and its array type
   and annotation, resolved where the statement starts (before it
   binds). *)
type rpat = {
  rv : string; (* source name: labels, trace events, messages *)
  rslot : slot;
  rarr : (sct * cpoly list) option; (* element type and shape *)
  rmem : (slot * rlmad list) option; (* block and index function *)
}

type rexp =
  | RAtom of ratom
  | RBin of binop * ratom * ratom
  | RCmp of cmpop * ratom * ratom
  | RUn of unop * ratom
  | RIdx of cpoly
  | RIndex of slot * cpoly list
  | RView of slot (* slice, transpose, reshape, reverse *)
  | RIota of cpoly
  | RReplicate of ratom
  | RScratch
  | RCopy of slot
  | RConcat of slot list
  | RUpdate of slot * rslice * rsrc
  | RMap of rmap
  | RReduce of binop * ratom * slot
  | RArgmin of slot
  | RLoop of rloop
  | RIf of ratom * rblock * rblock
  | RAlloc of cpoly * bool (* size; binds a packing arena *)

and rsrc = RSrcArr of slot | RSrcScalar of ratom

and rmap = {
  mdims : cpoly list;
  mindices : slot list;
  mbody : rblock;
  mdests : (string * slot) list;
      (* annotated destinations anywhere in the body whose block name
         the launch scope binds, with that launch-scope slot *)
  mreads : slot list;
      (* launch-scope slots of the operands the body mentions, sorted
         by source name *)
}

and rloop = {
  lparams : slot list;
  linits : ratom list;
  lcounter : slot;
  lbound : cpoly;
  lbody : rblock;
  scalar_carry : bool; (* some loop parameter is an i64 *)
}

and rstm = {
  rpats : rpat list;
  rexp : rexp;
  dying : slot list; (* the statement's [last_uses] bound after it *)
  kept : (slot option * slot option) list;
      (* per result variable of the enclosing block, as seen right after
         the statement: its own slot, and the slot of the block its
         annotation names (empty when [dying] is) *)
}

and rblock = { rstms : rstm list; rres : ratom list }

type state = {
  mode : mode;
  counters : Device.counters;
  frame : aval array; (* one slot per binder occurrence *)
  names : string array; (* source name of each slot *)
  unbound : string array; (* names of the negative references *)
  mutable last_bid : int; (* block ids are numbered per run, from 1 *)
  mutable pool : Device.Pool.t option;
      (* pooled allocator serving top-level [EAlloc]s; None = every
         allocation is a fresh device allocation (the --no-pool model).
         Mutable: a contained device fault degrades the run to
         unpooled execution by flushing and dropping the pool. *)
  fail_safe : bool;
      (* contain device faults (OOM, strict-cap refusal) by degrading
         to unpooled execution instead of raising *)
  strict_cap : bool;
      (* refuse live memory past the pool cap (default cap semantics
         only bound cache growth) *)
  oom_at : int;
      (* fault injection: refuse allocation number [oom_at] (1-based
         over top-level and scratch allocations); 0 = never *)
  mutable alloc_seq : int; (* allocations seen so far, for [oom_at] *)
  mutable exec_faults : Core.Fault.t list; (* contained, newest first *)
  mutable unfreed : int;
      (* device-owned blocks allocated but not yet freed: the
         teardown's synchronizing-free top-up counts exactly these,
         staying consistent even when the pool degraded mid-run *)
  mutable tracer : Trace.t option;
      (* when set, every memory-relevant action appends a trace event *)
  mutation : mutation option; (* fault injection (tests only) *)
  mutable kernel_depth : int;
  mutable kernel_scratch : float;
      (* bytes of per-thread scratch allocated by the kernel currently
         in flight (CUDA local-memory model): raises the peak while the
         kernel runs, released when it retires *)
  thread_writes : (int * int, unit) Hashtbl.t;
      (* (block id, offset) pairs written by the current kernel thread:
         re-reads of a thread's own writes hit registers/shared memory
         and cost no global traffic (temporal locality within a thread,
         e.g. the in-block cells of NW/LUD) *)
  kernel_reads_tally : (int, float * int) Hashtbl.t;
      (* per-kernel DRAM read estimate per block: bid -> (bytes, block
         size in elements).  At kernel end each block's reads are capped
         at its footprint - a perfect-L2 model: within one kernel launch
         a location is fetched from DRAM at most once (spatial/temporal
         sharing between threads, e.g. stencil neighbours) *)
}

let elem_bytes = 8.0

(* ---------------------------------------------------------------- *)
(* Pool plumbing                                                     *)
(* ---------------------------------------------------------------- *)

(* A block goes back on the pool's free list when its contents die (the
   same last-use markers the tracer emits); double frees from blocks
   shared by several variables are guarded by the [freed] flag.  The
   converse direction mirrors Memtrace's revive-on-write rule: writing
   into a freed block (the coalesced-block pattern, where a later
   occupant rebinds into an earlier occupant's block) reclaims its
   capacity from the pool.

   Without a pool the same death marker is a synchronizing device free
   ([cudaFree] stalls until the device drains), so it is counted for
   the cost model instead of pushed onto a free list. *)
let pool_free st (b : blockv) =
  if b.devbytes > 0. && not b.freed then begin
    b.freed <- true;
    st.unfreed <- st.unfreed - 1;
    match st.pool with
    | Some p -> Device.Pool.free p b.devbytes
    | None -> st.counters.frees <- st.counters.frees + 1
  end

let pool_revive st (b : blockv) =
  if b.freed then begin
    b.freed <- false;
    st.unfreed <- st.unfreed + 1;
    match st.pool with
    | Some p -> Device.Pool.revive p b.devbytes
    | None -> ()
  end

(* Contain (fail-safe) or raise a device-layer fault.  Containment is
   the executor's rung of the degradation ladder: the pool's cached
   blocks are all released - priced as synchronizing device frees, the
   penalty of degrading - and the run continues unpooled, every
   further allocation a fresh device allocation. *)
let device_fault st (f : Core.Fault.t) =
  if not st.fail_safe then raise (Core.Fault.Fault f)
  else begin
    st.exec_faults <- f :: st.exec_faults;
    (match st.pool with
    | Some p ->
        let released = Device.Pool.flush p in
        st.counters.frees <- st.counters.frees + released
    | None -> ());
    st.pool <- None
  end

(* ---------------------------------------------------------------- *)
(* Resolution: binder occurrences to frame slots                     *)
(* ---------------------------------------------------------------- *)

type resolver = {
  mutable nslots : int;
  mutable slots : string list; (* source name of each slot, newest first *)
  mutable nfree : int;
  mutable free : string list; (* unbound names, newest first *)
  mutable mentioned : string list option;
      (* operand names met in the innermost enclosing mapnest body;
         None outside every kernel *)
}

let bind r scope v =
  let s = r.nslots in
  r.nslots <- s + 1;
  r.slots <- v :: r.slots;
  (s, Scope.add v s scope)

let bind_all r scope vs =
  let slots, scope =
    List.fold_left
      (fun (acc, scope) v ->
        let s, scope = bind r scope v in
        (s :: acc, scope))
      ([], scope) vs
  in
  (List.rev slots, scope)

let use r scope v : slot =
  match Scope.find_opt v scope with
  | Some s -> s
  | None ->
      r.nfree <- r.nfree + 1;
      r.free <- v :: r.free;
      -r.nfree

(* A value operand: also what a kernel's declared reads are made of. *)
let operand r scope v =
  Option.iter (fun l -> r.mentioned <- Some (v :: l)) r.mentioned;
  use r scope v

let atom r scope = function
  | Var v -> Slot (operand r scope v)
  | Int i -> Const (AInt i)
  | Float f -> Const (AFloat f)
  | Bool b -> Const (ABool b)

let poly r scope (p : P.t) : cpoly =
  Array.of_list
    (List.map
       (fun (m : P.mono) ->
         {
           coeff = m.coeff;
           factors =
             Array.of_list
               (List.concat_map
                  (fun (x, e) ->
                    let s = use r scope x in
                    List.init e (fun _ -> s))
                  m.pows);
         })
       (P.monos p))

let lmad r scope (l : Lmad.t) : rlmad =
  {
    roff = poly r scope (Lmad.offset l);
    rdims =
      List.map
        (fun (d : Lmad.dim) -> (poly r scope d.n, poly r scope d.s))
        (Lmad.dims l);
  }

let slice r scope = function
  | STriplet sds ->
      RTriplet
        (List.map
           (function
             | SFix i -> DFix (poly r scope i)
             | SRange { start; len; step } ->
                 DRange
                   (poly r scope start, poly r scope len, poly r scope step))
           sds)
  | SLmad l -> RLmad (lmad r scope l)

(* A pattern element's array type and annotation, resolved in the
   scope where its statement starts. *)
let dest r scope (pe : pat_elem) =
  ( (match pe.pt with
    | TArr (elt, shape) -> Some (elt, List.map (poly r scope) shape)
    | _ -> None),
    Option.map
      (fun (m : mem_info) ->
        (use r scope m.block, List.map (lmad r scope) (Ixfn.chain m.ixfn)))
      pe.pmem )

(* Memory destinations annotated anywhere inside a kernel body whose
   block name the launch scope binds (hoisted scratch): the kernel is
   declared to write - and therefore also read - them.  The name is
   looked up in the launch scope even where a body-local binder
   shadows it. *)
let rec body_dests scope (blk : block) acc =
  List.fold_left
    (fun acc (s : stm) ->
      let acc =
        List.fold_left
          (fun acc (pe : pat_elem) ->
            match pe.pmem with
            | Some m -> (
                match Scope.find_opt m.block scope with
                | Some slot -> (pe.pv, slot) :: acc
                | None -> acc)
            | None -> acc)
          acc s.pat
      in
      match s.exp with
      | EMap { body; _ } | ELoop { body; _ } -> body_dests scope body acc
      | EIf { tb; fb; _ } -> body_dests scope tb (body_dests scope fb acc)
      | _ -> acc)
    acc blk.stms

let rec resolve_exp r scope (s : stm) : rexp =
  let atom = atom r scope and operand = operand r scope in
  let poly = poly r scope in
  match s.exp with
  | EAtom a -> RAtom (atom a)
  | EBin (op, a, b) -> RBin (op, atom a, atom b)
  | ECmp (op, a, b) -> RCmp (op, atom a, atom b)
  | EUn (op, a) -> RUn (op, atom a)
  | EIdx p -> RIdx (poly p)
  | EIndex (v, idxs) -> RIndex (operand v, List.map poly idxs)
  | ESlice (v, _) | ETranspose (v, _) | EReshape (v, _) | EReverse (v, _) ->
      RView (operand v)
  | EIota n -> RIota (poly n)
  | EReplicate (_, a) -> RReplicate (atom a)
  | EScratch _ -> RScratch
  | ECopy v -> RCopy (operand v)
  | EConcat vs -> RConcat (List.map operand vs)
  | EUpdate { dst; slc; src } ->
      let src =
        match src with
        | SrcArr v -> RSrcArr (operand v)
        | SrcScalar a -> RSrcScalar (atom a)
      in
      RUpdate (operand dst, slice r scope slc, src)
  | EMap { nest; body } ->
      let mdims = List.map (fun (_, n) -> poly n) nest in
      let mindices, inner = bind_all r scope (List.map fst nest) in
      let outer = r.mentioned in
      r.mentioned <- Some [];
      let mbody = resolve_block r inner body in
      let mentioned = Option.value r.mentioned ~default:[] in
      r.mentioned <- Option.map (List.rev_append mentioned) outer;
      RMap
        {
          mdims;
          mindices;
          mbody;
          mdests = body_dests scope body [];
          mreads =
            List.filter_map
              (fun v -> Scope.find_opt v scope)
              (List.sort_uniq compare mentioned);
        }
  | EReduce { op; ne; arr } -> RReduce (op, atom ne, operand arr)
  | EArgmin v -> RArgmin (operand v)
  | ELoop { params; var; bound; body } ->
      let linits = List.map (fun (_, init) -> atom init) params in
      let lbound = poly bound in
      let lparams, inner =
        bind_all r scope (List.map (fun ((pe : pat_elem), _) -> pe.pv) params)
      in
      let lcounter, inner = bind r inner var in
      RLoop
        {
          lparams;
          linits;
          lcounter;
          lbound;
          lbody = resolve_block r inner body;
          scalar_carry =
            List.exists
              (fun ((pe : pat_elem), _) -> pe.pt = TScalar I64)
              params;
        }
  | EIf { cond; tb; fb } ->
      RIf (atom cond, resolve_block r scope tb, resolve_block r scope fb)
  | EAlloc size ->
      RAlloc
        ( poly size,
          match s.pat with [ pe ] -> Core.Pack.is_arena pe.pv | _ -> false )

and resolve_block r scope (b : block) : rblock =
  let res_vars = List.filter_map atom_var b.res in
  (* Annotated block names of result variables this block binds.  A
     result bound by a LATER statement has no value yet while earlier
     statements execute, so its block is found through the annotation
     name instead (the [EAlloc] precedes any use of the block) -
     otherwise a last-use marker for a co-resident variable would date
     the block's death before a later in-block write (the rotated-loop
     pattern). *)
  let res_blocks =
    lazy
      (List.fold_left
         (fun m (s : stm) ->
           List.fold_left
             (fun m (pe : pat_elem) ->
               match pe.pmem with
               | Some mi when List.mem pe.pv res_vars ->
                   Scope.add pe.pv mi.block m
               | _ -> m)
             m s.pat)
         Scope.empty b.stms)
  in
  let scope, stms =
    List.fold_left
      (fun (scope, acc) (s : stm) ->
        let rexp = resolve_exp r scope s in
        let rpats, post =
          List.fold_left
            (fun (acc, post) (pe : pat_elem) ->
              let rarr, rmem = dest r scope pe in
              let rslot, post = bind r post pe.pv in
              ({ rv = pe.pv; rslot; rarr; rmem } :: acc, post))
            ([], scope) s.pat
        in
        let rpats = List.rev rpats and scope = post in
        let dying =
          List.filter_map (fun v -> Scope.find_opt v scope) s.last_uses
        in
        let kept =
          if dying = [] then []
          else
            List.map
              (fun v ->
                ( Scope.find_opt v scope,
                  Option.bind
                    (Scope.find_opt v (Lazy.force res_blocks))
                    (fun bname -> Scope.find_opt bname scope) ))
              res_vars
        in
        (scope, { rpats; rexp; dying; kept } :: acc))
      (scope, []) b.stms
  in
  { rstms = List.rev stms; rres = List.map (atom r scope) b.res }

(* Resolve a whole program: its parameters (each array parameter's
   memory block first, then the parameter), then its body. *)
let resolve (p : prog) =
  let r = { nslots = 0; slots = []; nfree = 0; free = []; mentioned = None } in
  let scope, params =
    List.fold_left
      (fun (scope, acc) (pe : pat_elem) ->
        let blk, scope =
          match (pe.pt, pe.pmem) with
          | TArr _, Some m ->
              let s, scope = bind r scope m.block in
              (Some s, scope)
          | _ -> (None, scope)
        in
        let s, scope = bind r scope pe.pv in
        (scope, (pe, s, blk) :: acc))
      (Scope.empty, []) p.params
  in
  let body = resolve_block r scope p.body in
  (List.rev params, body, r)

(* ---------------------------------------------------------------- *)
(* Frame access and polynomial evaluation                            *)
(* ---------------------------------------------------------------- *)

let var st (s : slot) =
  if s >= 0 then st.frame.(s) else err "exec: unbound %s" st.unbound.(-1 - s)

let arr_var st s =
  match var st s with
  | AArr a -> a
  | _ -> err "exec: %s is not an array" st.names.(s)

let block_var st s =
  match var st s with
  | AMem b -> b
  | _ -> err "exec: %s is not a memory block" st.names.(s)

let int_var st s =
  match var st s with
  | AInt i -> i
  | _ -> err "exec: %s is not an integer (in index expression)" st.names.(s)

let eval st (p : cpoly) : int =
  let acc = ref 0 in
  for m = 0 to Array.length p - 1 do
    let { coeff; factors } = p.(m) in
    let v = ref coeff in
    for f = 0 to Array.length factors - 1 do
      v := !v * int_var st factors.(f)
    done;
    acc := !acc + !v
  done;
  !acc

let eval_atom st = function Slot s -> var st s | Const v -> v

let eval_lmad st (l : rlmad) : clmad =
  {
    coff = eval st l.roff;
    cdims = List.map (fun (n, s) -> (eval st n, eval st s)) l.rdims;
  }

let concretize st (ix : rlmad list) : cixfn = List.map (eval_lmad st) ix

(* Apply a concrete index function to a concrete index. *)
let capply (ix : cixfn) (idxs : int list) : int =
  match ix with
  | [] -> err "exec: empty index function"
  | first :: rest ->
      let app l idxs =
        List.fold_left2
          (fun acc i (_, s) -> acc + (i * s))
          l.coff idxs l.cdims
      in
      let o = ref (app first idxs) in
      List.iter
        (fun l ->
          let shp = List.map fst l.cdims in
          let rec unrank o = function
            | [] -> []
            | [ _ ] -> [ o ]
            | _ :: rest ->
                let inner = List.fold_left ( * ) 1 rest in
                (o / inner) :: unrank (o mod inner) rest
          in
          o := app l (unrank !o shp))
        rest;
      !o

(* ---------------------------------------------------------------- *)
(* Declared footprints (tracing)                                     *)
(* ---------------------------------------------------------------- *)

(* The declared region of a static index function at launch time: its
   memory-side LMAD concretized in the frame.  Annotations mentioning
   variables with no launch-time value (per-thread indices, inner loop
   counters) have no single enumerable region and degrade to None -
   "anywhere in the block", which is still bounded by the block size. *)
let try_region st (ix : rlmad list) : clmad list option =
  match List.rev ix with
  | [] -> None
  | mem :: _ -> ( try Some [ eval_lmad st mem ] with Exec_error _ -> None)

(* An already-concrete array view's memory-side region. *)
let region_of_cixfn (ix : cixfn) : clmad list option =
  match List.rev ix with [] -> None | mem :: _ -> Some [ mem ]

let arr_footprint v (a : arrv) : Trace.footprint =
  { Trace.fvar = v; fbid = a.block.bid; fregion = region_of_cixfn a.ix }

(* Declared write footprints of a kernel statement: the memory
   annotations of its array-typed bindings. *)
let pat_footprints st (s : rstm) : Trace.footprint list =
  List.filter_map
    (fun p ->
      match (p.rarr, p.rmem) with
      | Some _, Some (blk, ix) -> (
          match var st blk with
          | AMem b ->
              Some
                { Trace.fvar = p.rv; fbid = b.bid; fregion = try_region st ix }
          | _ -> None)
      | _ -> None)
    s.rpats

(* Hoisted destinations inside a mapnest body, as declared writes. *)
let dest_footprints st (m : rmap) : Trace.footprint list =
  List.filter_map
    (fun (v, slot) ->
      match st.frame.(slot) with
      | AMem b -> Some { Trace.fvar = v; fbid = b.bid; fregion = None }
      | _ -> None)
    m.mdests

(* Declared read footprints of a mapnest body: the full (concrete) view
   of every outer array the body mentions by name. *)
let read_footprints st (m : rmap) : Trace.footprint list =
  List.filter_map
    (fun slot ->
      match st.frame.(slot) with
      | AArr a -> Some (arr_footprint st.names.(slot) a)
      | _ -> None)
    m.mreads

(* Element-wise location equality (same block, same mapping): used to
   elide copies arranged by short-circuiting.  Cardinal-1 dimensions do
   not affect the mapping and are dropped before comparison. *)
let strip (ix : cixfn) =
  List.map
    (fun l -> { l with cdims = List.filter (fun (n, _) -> n <> 1) l.cdims })
    ix

let same_location (b1 : blockv) ix1 (b2 : blockv) ix2 =
  b1 == b2 && strip ix1 = strip ix2

(* ---------------------------------------------------------------- *)
(* Payload access                                                    *)
(* ---------------------------------------------------------------- *)

let ensure_payload (b : blockv) (elt : sct) : payload =
  match b.payload with
  | Some p -> p
  | None ->
      let p =
        match elt with
        | F64 -> PF (Array.make b.bsize 0.0)
        | I64 -> PI (Array.make b.bsize 0)
        | Bool -> PB (Array.make b.bsize false)
      in
      b.payload <- Some p;
      p

let tally_reads st (a : blockv) bytes =
  let prev =
    match Hashtbl.find_opt st.kernel_reads_tally a.bid with
    | Some (b, _) -> b
    | None -> 0.
  in
  Hashtbl.replace st.kernel_reads_tally a.bid (prev +. bytes, a.bsize)

let read_cell st (a : blockv) elt (off : int) : aval =
  (if st.kernel_depth = 0 then
     st.counters.kernel_reads <- st.counters.kernel_reads +. elem_bytes
   else if not (Hashtbl.mem st.thread_writes (a.bid, off)) then
     tally_reads st a elem_bytes);
  (match st.tracer with
  | Some tr when st.kernel_depth > 0 && st.mode = Full ->
      Trace.kernel_read tr ~bid:a.bid ~off
  | _ -> ());
  match st.mode with
  | Cost_only -> (
      match elt with F64 -> AFloat 0.5 | I64 -> AInt 0 | Bool -> ABool true)
  | Full -> (
      if off < 0 || off >= a.bsize then
        err "exec: read out of bounds in %s (%d / %d)" a.bname off a.bsize;
      match ensure_payload a elt with
      | PF d -> AFloat d.(off)
      | PI d -> AInt d.(off)
      | PB d -> ABool d.(off))

let write_cell st (a : blockv) elt (off : int) (v : aval) : unit =
  if a.freed then pool_revive st a;
  let off =
    match st.mutation with
    | Some Off_by_one_write when st.kernel_depth > 0 -> off + 1
    | _ -> off
  in
  st.counters.kernel_writes <- st.counters.kernel_writes +. elem_bytes;
  if st.kernel_depth > 0 then
    Hashtbl.replace st.thread_writes (a.bid, off) ();
  (match st.tracer with
  | Some tr when st.kernel_depth > 0 && st.mode = Full ->
      Trace.kernel_write tr ~bid:a.bid ~off
  | _ -> ());
  match st.mode with
  | Cost_only -> ()
  | Full -> (
      if off < 0 || off >= a.bsize then
        err "exec: write out of bounds in %s (%d / %d)" a.bname off a.bsize;
      match (ensure_payload a elt, v) with
      | PF d, AFloat x -> d.(off) <- x
      | PI d, AInt x -> d.(off) <- x
      | PB d, ABool x -> d.(off) <- x
      | _ -> err "exec: type mismatch writing %s" a.bname)

(* Raw data movement that bypasses the kernel counters (used by copy
   accounting, which maintains its own counters). *)
let move_cell (src : blockv) (dst : blockv) elt (soff : int) (doff : int) :
    unit =
  match (ensure_payload src elt, ensure_payload dst elt) with
  | PF s, PF d -> d.(doff) <- s.(soff)
  | PI s, PI d -> d.(doff) <- s.(soff)
  | PB s, PB d -> d.(doff) <- s.(soff)
  | _ -> err "exec: copy type mismatch"

(* All logical indices of a concrete shape, row-major. *)
let indices shape = Value.indices shape

let count shape = List.fold_left ( * ) 1 shape

(* ---------------------------------------------------------------- *)
(* Copies                                                            *)
(* ---------------------------------------------------------------- *)

(* Copy the logical contents of (sb, six, shape) to (db, dix); elided
   when the locations already coincide. *)
let copy_logical st elt shape (sb : blockv) (six : cixfn) (db : blockv)
    (dix : cixfn) : unit =
  if db.freed then pool_revive st db;
  let bytes = float_of_int (count shape) *. elem_bytes in
  let elided = same_location sb six db dix in
  (match st.tracer with
  | Some tr ->
      Trace.copy tr ~src:sb.bid ~dst:db.bid ~shape ~six ~dix ~bytes ~elided
        ~in_kernel:(st.kernel_depth > 0)
  | None -> ());
  if elided then begin
    st.counters.copies_elided <- st.counters.copies_elided + 1;
    st.counters.elided_bytes <- st.counters.elided_bytes +. bytes
  end
  else begin
    (* A copy inside a kernel (a per-thread result write) is kernel
       traffic; a top-level copy goes through the copy engine and pays
       per-copy overhead. *)
    if st.kernel_depth > 0 then begin
      tally_reads st sb bytes;
      st.counters.kernel_writes <- st.counters.kernel_writes +. bytes
    end
    else begin
      st.counters.copies <- st.counters.copies + 1;
      st.counters.copy_bytes <- st.counters.copy_bytes +. bytes
    end;
    match st.mode with
    | Cost_only -> ()
    | Full ->
        List.iter
          (fun idx ->
            let so = capply six idx and dof = capply dix idx in
            (match st.tracer with
            | Some tr when st.kernel_depth > 0 ->
                Trace.kernel_read tr ~bid:sb.bid ~off:so;
                Trace.kernel_write tr ~bid:db.bid ~off:dof
            | _ -> ());
            move_cell sb db elt so dof)
          (indices shape)
  end

(* ---------------------------------------------------------------- *)
(* Concrete slicing of index functions                               *)
(* ---------------------------------------------------------------- *)

let cslice_triplet (sds : int sdim list) (ix : cixfn) : cixfn =
  match ix with
  | [] -> err "exec: slicing empty ixfn"
  | l :: rest ->
      if List.length sds <> List.length l.cdims then
        err "exec: triplet slice rank mismatch";
      let off = ref l.coff in
      let dims =
        List.concat
          (List.map2
             (fun sd (_, s) ->
               match sd with
               | DFix i ->
                   off := !off + (i * s);
                   []
               | DRange (start, len, step) ->
                   off := !off + (start * s);
                   [ (len, step * s) ])
             sds l.cdims)
      in
      { coff = !off; cdims = dims } :: rest

(* Merge adjacent concrete dims (flatten), required for LMAD slicing. *)
let cflatten (l : clmad) : clmad option =
  let rec go = function
    | [] -> Some [ (1, 1) ]
    | [ d ] -> Some [ d ]
    | (n1, s1) :: rest -> (
        match go rest with
        | Some ((n2, s2) :: rest') when s1 = n2 * s2 ->
            Some ((n1 * n2, s2) :: rest')
        | _ -> None)
  in
  match go l.cdims with
  | Some [ d ] -> Some { coff = l.coff; cdims = [ d ] }
  | Some [] -> Some { coff = l.coff; cdims = [ (1, 1) ] }
  | _ -> None

let cslice_lmad (slc : clmad) (ix : cixfn) : cixfn =
  match ix with
  | [] -> err "exec: slicing empty ixfn"
  | l :: rest -> (
      match cflatten l with
      | None -> err "exec: LMAD slice of non-flattenable layout"
      | Some flat ->
          let base_s = match flat.cdims with [ (_, s) ] -> s | _ -> 1 in
          let coff = flat.coff + (slc.coff * base_s) in
          let cdims = List.map (fun (n, s) -> (n, s * base_s)) slc.cdims in
          { coff; cdims } :: rest)

let cslice st (slc : rslice) (ix : cixfn) : cixfn =
  match slc with
  | RTriplet sds ->
      cslice_triplet
        (List.map
           (function
             | DFix i -> DFix (eval st i)
             | DRange (start, len, step) ->
                 DRange (eval st start, eval st len, eval st step))
           sds)
        ix
  | RLmad l -> cslice_lmad (eval_lmad st l) ix

(* ---------------------------------------------------------------- *)
(* Scalar operations (tolerant in cost-only mode)                    *)
(* ---------------------------------------------------------------- *)

let bin st op a b =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.;
  let safe_div x y = if y = 0 && st.mode = Cost_only then 0 else x / y in
  let safe_rem x y = if y = 0 && st.mode = Cost_only then 0 else x mod y in
  match (op, a, b) with
  | Add, AInt x, AInt y -> AInt (x + y)
  | Sub, AInt x, AInt y -> AInt (x - y)
  | Mul, AInt x, AInt y -> AInt (x * y)
  | Div, AInt x, AInt y -> AInt (safe_div x y)
  | Rem, AInt x, AInt y -> AInt (safe_rem x y)
  | Min, AInt x, AInt y -> AInt (min x y)
  | Max, AInt x, AInt y -> AInt (max x y)
  | Add, AFloat x, AFloat y -> AFloat (x +. y)
  | Sub, AFloat x, AFloat y -> AFloat (x -. y)
  | Mul, AFloat x, AFloat y -> AFloat (x *. y)
  | Div, AFloat x, AFloat y -> AFloat (x /. y)
  | Rem, AFloat x, AFloat y -> AFloat (Float.rem x y)
  | Min, AFloat x, AFloat y -> AFloat (Float.min x y)
  | Max, AFloat x, AFloat y -> AFloat (Float.max x y)
  | And, ABool x, ABool y -> ABool (x && y)
  | Or, ABool x, ABool y -> ABool (x || y)
  | _ -> err "exec: ill-typed binop"

let cmp st op a b =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.;
  match (op, a, b) with
  | CEq, AInt x, AInt y -> ABool (x = y)
  | CLt, AInt x, AInt y -> ABool (x < y)
  | CLe, AInt x, AInt y -> ABool (x <= y)
  | CEq, AFloat x, AFloat y -> ABool (x = y)
  | CLt, AFloat x, AFloat y -> ABool (x < y)
  | CLe, AFloat x, AFloat y -> ABool (x <= y)
  | CEq, ABool x, ABool y -> ABool (x = y)
  | _ -> err "exec: ill-typed cmp"

let un st op a =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.;
  match (op, a) with
  | Neg, AInt x -> AInt (-x)
  | Neg, AFloat x -> AFloat (-.x)
  | Abs, AInt x -> AInt (abs x)
  | Abs, AFloat x -> AFloat (Float.abs x)
  | Sqrt, AFloat x -> AFloat (sqrt (Float.abs x))
  | Exp, AFloat x -> AFloat (exp x)
  | Log, AFloat x -> AFloat (if x <= 0. then 0. else log x)
  | Not, ABool x -> ABool (not x)
  | ToF64, AInt x -> AFloat (float_of_int x)
  | ToI64, AFloat x -> AInt (int_of_float x)
  | _ -> err "exec: ill-typed unop"

(* ---------------------------------------------------------------- *)
(* Memory info of a pattern element                                   *)
(* ---------------------------------------------------------------- *)

(* The destination (block, ixfn) a pattern element is annotated with.
   Binding a fresh occupant into a freed block (a scratch declaration
   ahead of the kernel that fills it) reclaims it from the pool. *)
let dest_of st (p : rpat) =
  match p.rmem with
  | None -> err "exec: %s has no memory annotation" p.rv
  | Some (blk, ix) ->
      let b = block_var st blk in
      if b.freed then pool_revive st b;
      (b, concretize st ix)

let arr_of_pat st (p : rpat) =
  match p.rarr with
  | Some (elt, shape) ->
      let block, ix = dest_of st p in
      AArr { elt; shape = List.map (eval st) shape; block; ix }
  | None -> err "exec: %s is not an array pattern" p.rv

(* The block a result of the enclosing lexical block lives in, as seen
   right after a statement: the result's own array or block when bound,
   else the block its annotation names. *)
let result_bid st (v, blk) =
  match Option.map (Array.get st.frame) v with
  | Some (AArr a) -> Some a.block.bid
  | Some (AMem b) -> Some b.bid
  | _ -> (
      match Option.map (Array.get st.frame) blk with
      | Some (AMem b) -> Some b.bid
      | _ -> None)

(* ---------------------------------------------------------------- *)
(* Expression execution                                              *)
(* ---------------------------------------------------------------- *)

let rec exec_exp st (s : rstm) : aval list =
  match s.rexp with
  | RAtom a -> [ eval_atom st a ]
  | RBin (op, a, b) -> [ bin st op (eval_atom st a) (eval_atom st b) ]
  | RCmp (op, a, b) -> [ cmp st op (eval_atom st a) (eval_atom st b) ]
  | RUn (op, a) -> [ un st op (eval_atom st a) ]
  | RIdx p -> [ AInt (eval st p) ]
  | RIndex (v, idxs) ->
      let a = arr_var st v in
      let is = List.map (eval st) idxs in
      [ read_cell st a.block a.elt (capply a.ix is) ]
  | RView v ->
      (* O(1): the result's annotation holds the transformed ixfn *)
      let a = arr_var st v in
      let p = List.hd s.rpats in
      let _, ix = dest_of st p in
      [
        AArr
          {
            elt = a.elt;
            shape =
              (match p.rarr with
              | Some (_, shape) -> List.map (eval st) shape
              | None -> err "exec: view with non-array pattern");
            block = a.block;
            ix;
          };
      ]
  | RIota n ->
      let p = List.hd s.rpats in
      let out = arr_of_pat st p in
      let n = eval st n in
      launch_kernel st ~label:p.rv
        ~declared:(fun () -> (pat_footprints st s, [], n))
        (fun () ->
          match out with
          | AArr o ->
              (match st.mode with
              | Full ->
                  for i = 0 to n - 1 do
                    write_cell st o.block o.elt (capply o.ix [ i ]) (AInt i)
                  done
              | Cost_only ->
                  st.counters.kernel_writes <-
                    st.counters.kernel_writes +. (float_of_int n *. elem_bytes));
              [ out ]
          | _ -> Core.Fault.internal ~where:"Exec.iota" "scalar destination")
  | RReplicate a ->
      let p = List.hd s.rpats in
      let out = arr_of_pat st p in
      let v = eval_atom st a in
      launch_kernel st ~label:p.rv
        ~declared:(fun () ->
          ( pat_footprints st s,
            [],
            match out with AArr o -> count o.shape | _ -> 0 ))
        (fun () ->
          match out with
          | AArr o ->
              let n = count o.shape in
              (match st.mode with
              | Full ->
                  List.iter
                    (fun idx -> write_cell st o.block o.elt (capply o.ix idx) v)
                    (indices o.shape)
              | Cost_only ->
                  st.counters.kernel_writes <-
                    st.counters.kernel_writes +. (float_of_int n *. elem_bytes));
              [ out ]
          | _ ->
              Core.Fault.internal ~where:"Exec.replicate" "scalar destination")
  | RScratch ->
      (* no writes: just bind the destination *)
      [ arr_of_pat st (List.hd s.rpats) ]
  | RCopy v ->
      let a = arr_var st v in
      let db, dix = dest_of st (List.hd s.rpats) in
      copy_logical st a.elt a.shape a.block a.ix db dix;
      [ AArr { a with block = db; ix = dix } ]
  | RConcat vs ->
      let out = arr_of_pat st (List.hd s.rpats) in
      (match out with
      | AArr o ->
          let row = ref 0 in
          List.iter
            (fun v ->
              let a = arr_var st v in
              let d0 = List.hd a.shape in
              let dix =
                cslice_triplet
                  (DRange (!row, d0, 1)
                  :: List.map (fun d -> DRange (0, d, 1)) (List.tl a.shape))
                  o.ix
              in
              copy_logical st a.elt a.shape a.block a.ix o.block dix;
              row := !row + d0)
            vs
      | _ ->
          Core.Fault.internal ~where:"Exec.concat" "scalar destination");
      [ out ]
  | RUpdate (dst, slc, src) -> (
      let d = arr_var st dst in
      let tix = cslice st slc d.ix in
      match src with
      | RSrcScalar a ->
          let v = eval_atom st a in
          write_cell st d.block d.elt (capply tix []) v;
          [ AArr d ]
      | RSrcArr sv ->
          let sa = arr_var st sv in
          copy_logical st sa.elt sa.shape sa.block sa.ix d.block tix;
          [ AArr d ])
  | RMap m -> exec_map st s m
  | RReduce (op, ne, arr) ->
      let a = arr_var st arr in
      let n = count a.shape in
      launch_kernel st
        ~label:(match s.rpats with p :: _ -> p.rv | [] -> "reduce")
        ~declared:(fun () -> ([], [ arr_footprint st.names.(arr) a ], n))
        (fun () ->
          match st.mode with
          | Full ->
              let acc = ref (eval_atom st ne) in
              for i = 0 to n - 1 do
                acc := bin st op !acc (read_cell st a.block a.elt (capply a.ix [ i ]))
              done;
              [ !acc ]
          | Cost_only ->
              tally_reads st a.block (float_of_int n *. elem_bytes);
              st.counters.flops <- st.counters.flops +. float_of_int n;
              [ eval_atom st ne ])
  | RArgmin arr ->
      let a = arr_var st arr in
      let n = count a.shape in
      launch_kernel st
        ~label:(match s.rpats with p :: _ -> p.rv | [] -> "argmin")
        ~declared:(fun () -> ([], [ arr_footprint st.names.(arr) a ], n))
        (fun () ->
          match st.mode with
          | Full ->
              let best = ref infinity and besti = ref 0 in
              for i = 0 to n - 1 do
                match read_cell st a.block a.elt (capply a.ix [ i ]) with
                | AFloat x ->
                    if x < !best then (
                      best := x;
                      besti := i)
                | _ -> err "exec: argmin over non-float"
              done;
              [ AFloat !best; AInt !besti ]
          | Cost_only ->
              tally_reads st a.block (float_of_int n *. elem_bytes);
              st.counters.flops <- st.counters.flops +. float_of_int n;
              [ AFloat 0.5; AInt 0 ])
  | RLoop l ->
      let n = eval st l.lbound in
      let run_iter vals i =
        List.iter2 (fun slot v -> st.frame.(slot) <- v) l.lparams vals;
        st.frame.(l.lcounter) <- AInt i;
        exec_block st l.lbody
      in
      if st.mode = Cost_only && n >= 24 && not l.scalar_carry then begin
        (* Simpson-sampled loop: run iterations 0, n/2 and n-1 from the
           initial state and charge n * (d0 + 4*dmid + dlast)/6 - exact
           for per-iteration costs up to quadratic in the index (NW's
           wavefront, LUD's shrinking interior). *)
        let init = List.map (eval_atom st) l.linits in
        let base = Device.clone st.counters in
        (* The per-kernel read tallies are part of the sampled state:
           when the loop itself runs inside a kernel (NN's per-thread
           scan) its reads accumulate in [kernel_reads_tally], not in
           the counters, so they must be snapshotted and extrapolated
           with the same Simpson weights or the perfect-L2 cap would
           see only the three sampled iterations' reads.  At top level
           every launch drains its own tally and the deltas are empty. *)
        let tally_list () =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.kernel_reads_tally []
        in
        let tally_restore snap =
          Hashtbl.reset st.kernel_reads_tally;
          List.iter
            (fun (k, v) -> Hashtbl.replace st.kernel_reads_tally k v)
            snap
        in
        let tally_delta before =
          Hashtbl.fold
            (fun bid (bytes, bsize) acc ->
              let prev =
                match List.assoc_opt bid before with
                | Some (b, _) -> b
                | None -> 0.
              in
              if bytes > prev then (bid, bytes -. prev, bsize) :: acc else acc)
            st.kernel_reads_tally []
        in
        let tbase = tally_list () in
        let sample i =
          let before = Device.clone st.counters in
          let u_before = st.unfreed in
          let tbefore = tally_list () in
          let vals = run_iter init i in
          let after = Device.clone st.counters in
          let tdelta = tally_delta tbefore in
          Device.assign st.counters before;
          st.unfreed <- u_before;
          tally_restore tbefore;
          (vals, before, after, tdelta)
        in
        let vals0, b0, a0, t0 = sample 0 in
        (* Pool steady state: iteration 0 ran against the live pool (a
           cold start, so its allocations miss); its in-body frees plus
           the emulated death of its carried generation bring the pool
           to the state an arbitrary later iteration starts from, which
           the mid/last samples then see (their allocations hit).  The
           Simpson weights turn that into ~n/6 misses + ~5n/6 hits,
           against n misses with the pool disabled. *)
        (if st.kernel_depth = 0 && st.pool <> None then begin
           let init_bids =
             List.filter_map
               (function AArr a -> Some a.block.bid | _ -> None)
               init
           in
           let u = st.unfreed in
           List.iter
             (function
               | AArr a when not (List.mem a.block.bid init_bids) ->
                   pool_free st a.block
               | _ -> ())
             vals0;
           (* the sampled blocks' lifetimes were already reverted with
              the counters; only the pool's free-list state is meant
              to advance here *)
           st.unfreed <- u
         end);
        let psteady = Option.map Device.Pool.snapshot st.pool in
        let _, bm, am, tm = sample (n / 2) in
        (match (st.pool, psteady) with
        | Some p, Some s -> Device.Pool.restore p s
        | _ -> ());
        let vals, bl, al, tl = sample (n - 1) in
        Device.assign st.counters base;
        Device.add_simpson st.counters (b0, a0) (bm, am) (bl, al)
          (float_of_int n);
        tally_restore tbase;
        let wf d0 dm dl =
          float_of_int n *. (d0 +. (4. *. dm) +. dl) /. 6.0
        in
        let find bid ts =
          match List.find_opt (fun (b, _, _) -> b = bid) ts with
          | Some (_, d, _) -> d
          | None -> 0.
        in
        let bsize_of bid =
          List.find_map
            (fun (b, _, sz) -> if b = bid then Some sz else None)
            (t0 @ tm @ tl)
        in
        List.iter
          (fun bid ->
            let d = wf (find bid t0) (find bid tm) (find bid tl) in
            match bsize_of bid with
            | Some bsize when d > 0. ->
                let prev =
                  match Hashtbl.find_opt st.kernel_reads_tally bid with
                  | Some (b, _) -> b
                  | None -> 0.
                in
                Hashtbl.replace st.kernel_reads_tally bid (prev +. d, bsize)
            | _ -> ())
          (List.sort_uniq compare
             (List.map (fun (b, _, _) -> b) (t0 @ tm @ tl)));
        vals
      end
      else begin
        let vals = ref (List.map (eval_atom st) l.linits) in
        for i = 0 to n - 1 do
          let prev = !vals in
          vals := run_iter prev i;
          (* A carried array whose block leaves the carried set dies
             here: its last read was inside this iteration's body.
             The static analysis attributes the carried value's
             liveness to the loop statement as a whole, so without
             this marker the trace would date the block's death to
             the previous iteration's intra-body markers - before its
             final read. *)
          if st.kernel_depth = 0 then begin
            let new_bids =
              List.filter_map
                (function AArr a -> Some a.block.bid | _ -> None)
                !vals
            in
            List.iter2
              (fun slot v ->
                match v with
                | AArr a when not (List.mem a.block.bid new_bids) ->
                    (match st.tracer with
                    | Some tr ->
                        Trace.last_use tr ~var:st.names.(slot)
                          ~bid:a.block.bid
                    | None -> ());
                    pool_free st a.block
                | _ -> ())
              l.lparams prev
          end
        done;
        !vals
      end
  | RIf (cond, tb, fb) -> (
      match eval_atom st cond with
      | ABool true -> exec_block st tb
      | ABool false -> exec_block st fb
      | _ -> err "exec: non-boolean condition")
  | RAlloc (size, arena) ->
      st.last_bid <- st.last_bid + 1;
      let n = eval st size in
      let b =
        {
          bid = st.last_bid;
          bname = Printf.sprintf "blk%d" st.last_bid;
          bsize = n;
          payload = None;
          devbytes = 0.;
          freed = false;
        }
      in
      if st.kernel_depth = 0 then begin
        st.counters.allocs <- st.counters.allocs + 1;
        st.alloc_seq <- st.alloc_seq + 1;
        (* arena blocks (introduced by the packing pass) are ordinary
           device allocations - one pool transaction each - but counted
           separately so the bench surface can report suballocation *)
        let bytes = float_of_int n *. elem_bytes in
        if arena then begin
          st.counters.arena_allocs <- st.counters.arena_allocs + 1;
          st.counters.arena_bytes <- st.counters.arena_bytes +. bytes
        end;
        st.counters.alloc_bytes <- st.counters.alloc_bytes +. bytes;
        st.counters.live_bytes <- st.counters.live_bytes +. bytes;
        if st.counters.live_bytes > st.counters.peak_bytes then
          st.counters.peak_bytes <- st.counters.live_bytes;
        (* [devbytes > 0] marks the block as device-owned so its death
           is accounted (free list push, or a counted synchronizing
           free when the pool is off); a pool hit overrides it with the
           possibly larger served capacity. *)
        b.devbytes <- bytes;
        st.unfreed <- st.unfreed + 1;
        if st.oom_at > 0 && st.alloc_seq = st.oom_at then
          device_fault st
            (Core.Fault.Device_oom { bytes; at_alloc = st.alloc_seq });
        (match st.pool with
        | Some p -> (
            match Device.Pool.refuses p bytes with
            | Some cap when st.strict_cap ->
                device_fault st (Core.Fault.Pool_cap { bytes; cap })
            | _ -> ())
        | None -> ());
        match st.pool with
        | Some p -> (
            match Device.Pool.alloc p bytes with
            | `Hit served ->
                st.counters.pool_hits <- st.counters.pool_hits + 1;
                b.devbytes <- served
            | `Miss ev ->
                st.counters.pool_misses <- st.counters.pool_misses + 1;
                (* cap evictions are real device frees: each one pays
                   the synchronizing free cost in the time model *)
                st.counters.frees <- st.counters.frees + ev)
        | None -> ()
      end
      else begin
        (* per-thread scratch: lives only for the kernel's duration,
           but while the kernel is in flight every thread's copy exists
           at once, so it counts toward the peak *)
        st.counters.scratch_allocs <- st.counters.scratch_allocs + 1;
        st.alloc_seq <- st.alloc_seq + 1;
        let bytes = float_of_int n *. elem_bytes in
        st.counters.scratch_bytes <- st.counters.scratch_bytes +. bytes;
        st.kernel_scratch <- st.kernel_scratch +. bytes;
        if st.counters.live_bytes +. st.kernel_scratch > st.counters.peak_bytes
        then
          st.counters.peak_bytes <-
            st.counters.live_bytes +. st.kernel_scratch;
        if st.oom_at > 0 && st.alloc_seq = st.oom_at then
          device_fault st
            (Core.Fault.Device_oom { bytes; at_alloc = st.alloc_seq })
      end;
      (match st.tracer with
      | Some tr ->
          Trace.alloc tr ~bid:b.bid ~name:b.bname ~elems:n
            ~in_kernel:(st.kernel_depth > 0)
      | None -> ());
      [ AMem b ]

and launch_kernel st ~label ~declared f =
  (* nested parallelism is flattened on a GPU: only top-level mapnests
     pay a launch *)
  let top = st.kernel_depth = 0 in
  let r0 = st.counters.kernel_reads and w0 = st.counters.kernel_writes in
  if top then begin
    st.counters.kernels <- st.counters.kernels + 1;
    st.kernel_scratch <- 0.;
    Hashtbl.reset st.kernel_reads_tally;
    (* the read-after-own-write suppression is per thread; without
       this reset a reduce/argmin launch inherits the previous
       kernel's final thread and under-counts its first-touch reads *)
    Hashtbl.reset st.thread_writes;
    match st.tracer with
    | Some tr ->
        let declared_writes, declared_reads, threads = declared () in
        Trace.kernel_begin tr ~label ~threads ~declared_writes ~declared_reads
    | None -> ()
  end;
  st.kernel_depth <- st.kernel_depth + 1;
  (* depth must be restored even when the body raises (an injected
     device fault in non-fail-safe mode, a checker exception): a stuck
     nonzero depth would misclassify every later top-level allocation
     as kernel scratch and corrupt the free accounting *)
  let r =
    Fun.protect
      ~finally:(fun () -> st.kernel_depth <- st.kernel_depth - 1)
      f
  in
  if top then begin
    (* perfect-L2: a kernel reads each block location from DRAM once *)
    Hashtbl.iter
      (fun _ (bytes, bsize) ->
        st.counters.kernel_reads <-
          st.counters.kernel_reads
          +. Float.min bytes (float_of_int bsize *. elem_bytes))
      st.kernel_reads_tally;
    if st.counters.live_bytes +. st.kernel_scratch > st.counters.peak_bytes
    then
      st.counters.peak_bytes <- st.counters.live_bytes +. st.kernel_scratch;
    st.kernel_scratch <- 0.;
    match st.tracer with
    | Some tr ->
        Trace.kernel_end tr
          ~read_bytes:(st.counters.kernel_reads -. r0)
          ~write_bytes:(st.counters.kernel_writes -. w0)
    | None -> ()
  end;
  r

(* Mapnest execution: one kernel; full mode iterates every thread,
   cost-only samples the midpoint thread and scales. *)
and exec_map st (s : rstm) (m : rmap) : aval list =
  let dims = List.map (eval st) m.mdims in
  let points = count dims in
  let outs = List.map (arr_of_pat st) s.rpats in
  let run_thread idx =
    Hashtbl.reset st.thread_writes;
    List.iter2 (fun slot i -> st.frame.(slot) <- AInt i) m.mindices idx;
    let results = exec_block st m.mbody in
    (* implicit write of each per-thread result into its slot *)
    List.iter2
      (fun out r ->
        match (out, r) with
        | AArr o, AArr ra ->
            let slot =
              cslice_triplet
                (List.map (fun i -> DFix i) idx
                @ List.map (fun d -> DRange (0, d, 1)) ra.shape)
                o.ix
            in
            copy_logical st ra.elt ra.shape ra.block ra.ix o.block slot
        | AArr o, (AFloat _ | AInt _ | ABool _) ->
            write_cell st o.block o.elt (capply o.ix idx) r
        | _ -> err "exec: mapnest result mismatch")
      outs results
  in
  launch_kernel st
    ~label:(match s.rpats with p :: _ -> p.rv | [] -> "map")
    ~declared:(fun () ->
      ( pat_footprints st s @ dest_footprints st m,
        read_footprints st m,
        points ))
    (fun () ->
      (match st.mode with
      | Full -> List.iter run_thread (indices dims)
      | Cost_only ->
          if points > 0 then begin
            let mid = List.map (fun d -> d / 2) dims in
            let snap = snapshot st.counters in
            let ks0 = st.kernel_scratch in
            run_thread mid;
            scale_delta st.counters snap (float_of_int points);
            (* every thread holds its own scratch while the kernel is
               in flight *)
            st.kernel_scratch <-
              ks0 +. ((st.kernel_scratch -. ks0) *. float_of_int points);
            if
              st.counters.live_bytes +. st.kernel_scratch
              > st.counters.peak_bytes
            then
              st.counters.peak_bytes <-
                st.counters.live_bytes +. st.kernel_scratch;
            (* scale the per-block read tallies by the thread count
               (capping happens when the kernel retires) *)
            let scaled =
              Hashtbl.fold
                (fun bid (bytes, bsize) acc ->
                  (bid, (bytes *. float_of_int points, bsize)) :: acc)
                st.kernel_reads_tally []
            in
            Hashtbl.reset st.kernel_reads_tally;
            List.iter
              (fun (bid, v) -> Hashtbl.replace st.kernel_reads_tally bid v)
              scaled
          end);
      outs)

and snapshot (c : Device.counters) =
  Device.
    ( c.kernel_writes,
      c.flops,
      c.copies,
      c.copy_bytes,
      c.copies_elided,
      c.elided_bytes,
      c.scratch_allocs,
      c.scratch_bytes )

(* Scale the per-thread cost deltas by the thread count (the kernel
   launch itself is not scaled).  Per-thread copies are GPU-side
   gather/scatter, so their count is folded into traffic rather than
   per-copy overhead. *)
and scale_delta (c : Device.counters) snap factor =
  let w0, f0, cp0, cb0, ce0, eb0, sa0, sb0 = snap in
  let open Device in
  c.kernel_writes <- w0 +. ((c.kernel_writes -. w0) *. factor);
  c.flops <- f0 +. ((c.flops -. f0) *. factor);
  c.copies <- cp0 + (if c.copies > cp0 then 1 else 0);
  c.copy_bytes <- cb0 +. ((c.copy_bytes -. cb0) *. factor);
  c.copies_elided <- ce0 + (if c.copies_elided > ce0 then 1 else 0);
  c.elided_bytes <- eb0 +. ((c.elided_bytes -. eb0) *. factor);
  c.scratch_allocs <-
    sa0
    + int_of_float
        (Float.round (float_of_int (c.scratch_allocs - sa0) *. factor));
  c.scratch_bytes <- sb0 +. ((c.scratch_bytes -. sb0) *. factor)

and exec_block st (b : rblock) : aval list =
  List.iter
    (fun s ->
      let vals = exec_exp st s in
      if List.length vals <> List.length s.rpats then
        err "exec: arity mismatch";
      List.iter2 (fun p v -> st.frame.(p.rslot) <- v) s.rpats vals;
      (* Liveness markers are only meaningful at top level: inside a
         kernel the same body runs once per thread, and per-thread
         "deaths" say nothing about the cross-kernel liveness the
         short-circuiting pass consumed. *)
      if st.kernel_depth = 0 && s.dying <> [] then begin
        (* A block aliased by a value this lexical block returns
           provably flows past every statement here (a rotated loop
           re-reads the carried buffer next iteration; a result block
           is read by the enclosing code), so a last-use marker for a
           variable living in it would date the block's death too
           early. *)
        let res_bids = List.filter_map (result_bid st) s.kept in
        List.iter
          (fun v ->
            match st.frame.(v) with
            | AArr a when not (List.mem a.block.bid res_bids) ->
                (match st.tracer with
                | Some tr ->
                    Trace.last_use tr ~var:st.names.(v) ~bid:a.block.bid
                | None -> ());
                pool_free st a.block
            | _ -> ())
          s.dying
      end)
    b.rstms;
  List.map (eval_atom st) b.rres

(* ---------------------------------------------------------------- *)
(* Program entry                                                     *)
(* ---------------------------------------------------------------- *)

(* Bind an input Value into the frame: arrays get their own block
   filled with the data (Full) or left virtual (Cost_only). *)
let bind_param st ((pe : pat_elem), slot, blk_slot) (v : Value.t) =
  match (pe.pt, v) with
  | TScalar _, Value.VInt i -> st.frame.(slot) <- AInt i
  | TScalar _, Value.VFloat f -> st.frame.(slot) <- AFloat f
  | TScalar _, Value.VBool b -> st.frame.(slot) <- ABool b
  | TArr (elt, _), Value.VArr a ->
      let blk_slot =
        match blk_slot with
        | Some s -> s
        | None -> err "exec: %s has no memory annotation" pe.pv
      in
      let bname = st.names.(blk_slot) in
      st.last_bid <- st.last_bid + 1;
      let n = Value.count a.Value.shape in
      let blk =
        {
          bid = st.last_bid;
          bname;
          bsize = n;
          payload = None;
          devbytes = 0.;
          freed = false;
        }
      in
      (match st.mode with
      | Full ->
          let p = ensure_payload blk elt in
          (match (p, a.Value.data) with
          | PF d, Value.DF s -> Array.blit s 0 d 0 n
          | PI d, Value.DI s -> Array.blit s 0 d 0 n
          | PB d, Value.DB s -> Array.blit s 0 d 0 n
          | _ -> err "exec: param payload mismatch")
      | Cost_only -> ());
      (match st.tracer with
      | Some tr ->
          Trace.alloc tr ~bid:blk.bid ~name:bname ~elems:n ~in_kernel:false
      | None -> ());
      st.frame.(blk_slot) <- AMem blk;
      st.frame.(slot) <-
        AArr
          {
            elt;
            shape = a.Value.shape;
            block = blk;
            ix =
              [
                {
                  coff = 0;
                  cdims =
                    (let rec strides = function
                       | [] -> []
                       | [ _ ] -> [ 1 ]
                       | _ :: rest ->
                           let ss = strides rest in
                           (match (rest, ss) with
                           | n :: _, s :: _ -> n * s
                           | _ ->
                               Core.Fault.internal ~where:"Exec.strides"
                                 "stride list out of step with shape")
                           :: ss
                     in
                     List.combine a.Value.shape (strides a.Value.shape));
                };
              ];
          }
  | _ -> err "exec: bad argument for %s" pe.pv

(* Read an array value back out of device memory. *)
let materialize st (v : aval) : Value.t =
  match v with
  | AInt i -> Value.VInt i
  | AFloat f -> Value.VFloat f
  | ABool b -> Value.VBool b
  | AMem _ -> Value.VMem 0
  | AArr a -> (
      match st.mode with
      | Cost_only -> Value.VArr (Value.shell a.elt a.shape)
      | Full ->
          let out = Value.zeros a.elt a.shape in
          List.iteri
            (fun i idx ->
              let cell =
                match read_cell st a.block a.elt (capply a.ix idx) with
                | AFloat f -> Value.VFloat f
                | AInt x -> Value.VInt x
                | ABool b -> Value.VBool b
                | _ ->
                    Core.Fault.internal ~where:"Exec.materialize"
                      "array cell read back as an array"
              in
              Value.set_flat out i cell)
            (indices a.shape);
          Value.VArr out)

type report = {
  results : Value.t list;
  counters : Device.counters;
  trace : Trace.t option;
  pool : Device.Pool.stats option;
  faults : Core.Fault.t list;
}

let run ?(mode = Full) ?(trace = false) ?(pool = true) ?pool_cap
    ?(variant = "program") ?mutation ?(fail_safe = true)
    ?(strict_cap = false) ?(oom_at = 0) (p : prog) (args : Value.t list) :
    report =
  let tracer =
    if trace then
      Some
        (Trace.create ~program:p.name ~variant ~exact:(mode = Full) ())
    else None
  in
  if List.length args <> List.length p.params then
    err "exec: %s expects %d arguments" p.name (List.length p.params);
  let params, body, r = resolve p in
  let st =
    {
      mode;
      counters = Device.fresh_counters ();
      frame = Array.make r.nslots (AInt 0);
      names = Array.of_list (List.rev r.slots);
      unbound = Array.of_list (List.rev r.free);
      last_bid = 0;
      tracer;
      mutation;
      pool =
        (if pool then Some (Device.Pool.create ?cap:pool_cap ())
         else None);
      fail_safe;
      strict_cap;
      oom_at;
      alloc_seq = 0;
      exec_faults = [];
      unfreed = 0;
      kernel_depth = 0;
      kernel_scratch = 0.;
      thread_writes = Hashtbl.create 256;
      kernel_reads_tally = Hashtbl.create 64;
    }
  in
  List.iter2 (bind_param st) params args;
  (* Teardown: without a pool, every device allocation is eventually
     matched by a synchronizing [cudaFree] - blocks that died mid-run
     were already counted by [pool_free]; top up with the frees of the
     [unfreed] blocks still live when the program hands back its
     results (an outstanding-block count, not [allocs - frees]: after
     a mid-run pool degradation the flush evictions already sit in
     [frees], and an absolute top-up would double-count them).  A
     pooled run tears the whole arena down in one context destruction
     instead, which is why [frees] stays 0 there.  Guarded so it runs
     exactly once, and [Fun.protect] runs it even when the executor
     raises mid-kernel - counters stay consistent under injected
     faults. *)
  let torn_down = ref false in
  let teardown () =
    if not !torn_down then begin
      torn_down := true;
      if st.pool = None then
        match st.mode with
        | Full ->
            st.counters.frees <- st.counters.frees + st.unfreed;
            st.unfreed <- 0
        | Cost_only ->
            (* sampled counters are Simpson extrapolations, so the
               outstanding-block count cannot be matched against them;
               keep the legacy absolute top-up *)
            if st.counters.allocs > st.counters.frees then
              st.counters.frees <- st.counters.allocs
    end
  in
  let res = Fun.protect ~finally:teardown (fun () -> exec_block st body) in
  (* reading back results is not part of the measured cost (or trace) *)
  let saved = st.counters.kernel_reads in
  Option.iter Trace.mute st.tracer;
  let results = List.map (materialize st) res in
  st.counters.kernel_reads <- saved;
  {
    results;
    counters = st.counters;
    trace = tracer;
    pool = Option.map Device.Pool.stats st.pool;
    faults = List.rev st.exec_faults;
  }

(* Simulated time on a device for a completed run. *)
let time device (r : report) = Device.time device r.counters

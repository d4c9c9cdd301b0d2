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

   The executor is staged, as the reference interpreter is.  Before
   executing, [run] walks the program once with a lexical scope and
   gives every binder occurrence - parameters and their memory blocks,
   pattern elements, loop parameters and counters, mapnest indices -
   its own slot of an [aval array], and compiles every statement to one
   closure over the run's state.  A closure is specialised on what the
   walk knows: its operator, whether each operand is a slot or a
   constant, the number of its indices, and the arity of its pattern,
   into whose slot it stores its result.  Each index polynomial is
   compiled to a sum of products over slots, or to a closure of its own
   when it is a constant, a variable or a variable plus a constant.
   Loops, ifs and mapnests run arrays of compiled statements.  The
   same walk records once the facts a run would otherwise re-derive at
   every execution: a mapnest's declared reads and destinations in its
   launch scope, the blocks a lexical block's results live in, and
   which loops carry an integer.  Scoping is lexical (a block returns
   values, never bindings), so a slot is always written before it is
   read.  A name no binder in scope defines compiles to a reference that
   raises [Exec_error] only if the run evaluates it.  Frame and closures
   live for one run.  Block ids are numbered per run, from 1, so a run
   is a pure function of (program, arguments): running a program twice
   in one process gives equal counters and byte-identical traces.

   The per-element path - what a kernel thread does for each element it
   reads or writes - builds no list and hashes nothing.  An element
   read, or an update of one element, under a single-LMAD index function
   computes its flat offset [coff + Σ iₖ·sₖ] from its index polynomials
   directly (chains unrank through [capply]).  The cells a thread has
   written, which make its re-reads free, live in an open-addressing set
   of (block id, offset) pairs that clears in O(1) for every thread
   ([Cells]).  The per-kernel read tallies live in an int-keyed table
   whose iteration order decides the capped float sums, so its hash and
   its sequence of updates are part of the cost model ([Tally]).  The
   table alone fixes that order; a block only remembers its record in
   it, so a read reaches the table once per block and kernel. *)

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

(* One block's DRAM reads in the kernel in flight, and its footprint in
   bytes, the perfect-L2 cap on them. *)
type tally = { mutable bytes : float; cap : float }

type blockv = {
  bid : int; (* unique id *)
  bname : string;
  bsize : int; (* elements *)
  mutable payload : payload option; (* lazily materialized (Full mode) *)
  mutable devbytes : float;
      (* device bytes the pool served for this block; 0 when the block
         is not pool-owned (inputs, scratch, pool disabled) *)
  mutable freed : bool; (* currently sitting on a pool free list *)
  mutable tally : tally;
      (* the block's record in the read tally table, valid while
         [tally_gen] is the table's generation *)
  mutable tally_gen : int;
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
(* Per-kernel bookkeeping                                            *)
(* ---------------------------------------------------------------- *)

(* The cells one kernel thread has written, a set of (block id, offset)
   pairs that is only ever queried for membership.  Open addressing
   stores both components of each pair, so the key stays exact for the
   out-of-range offsets of cost-only runs (which do not bounds-check),
   and a generation stamp per entry makes [clear] - once per thread -
   O(1). *)
module Cells : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val mem : t -> int -> int -> bool
  val add : t -> int -> int -> unit
end = struct
  type t = {
    mutable cells : int array;
        (* (stamp, bid, off) triples; an entry is live iff its stamp is
           [gen] *)
    mutable shift : int; (* 63 - log2 of the capacity *)
    mutable gen : int;
    mutable size : int; (* live entries *)
  }

  let create () =
    { cells = Array.make (3 * 64) 0; shift = 63 - 6; gen = 1; size = 0 }

  let clear t =
    t.gen <- t.gen + 1;
    t.size <- 0

  (* The index of the triple holding (bid, off), else of the empty one
     where it belongs: Fibonacci hashing, linear probing. *)
  let find t bid off =
    let cells = t.cells and mask = (Array.length t.cells / 3) - 1 in
    let i = ref ((((bid lsl 32) + off) * 0x1E3779B97F4A7C15) lsr t.shift) in
    while
      cells.(3 * !i) = t.gen
      && not (cells.((3 * !i) + 1) = bid && cells.((3 * !i) + 2) = off)
    do
      i := (!i + 1) land mask
    done;
    3 * !i

  let mem t bid off = t.cells.(find t bid off) = t.gen

  (* At most half full, so every probe ends at an empty triple. *)
  let rec add t bid off =
    let j = find t bid off in
    if t.cells.(j) <> t.gen then
      if 2 * (t.size + 1) > Array.length t.cells / 3 then begin
        let old = t.cells in
        t.cells <- Array.make (2 * Array.length old) 0;
        t.shift <- t.shift - 1;
        t.size <- 0;
        for i = 0 to (Array.length old / 3) - 1 do
          if old.(3 * i) = t.gen then add t old.((3 * i) + 1) old.((3 * i) + 2)
        done;
        add t bid off
      end
      else begin
        t.cells.(j) <- t.gen;
        t.cells.(j + 1) <- bid;
        t.cells.(j + 2) <- off;
        t.size <- t.size + 1
      end
end

(* The per-kernel tallies are summed, capped, in [iter] order when the
   kernel retires, and with non-integer byte counts (Simpson weights)
   that order decides the last bits of the modeled traffic.  The order
   is fixed by the hash and by the exact sequence of [add]/[replace]/
   [reset] calls, so the hash stays [Hashtbl.hash] and the sampling
   code below keeps its fold-and-reinsert rebuilds;
   [test/exec_counters.expected] pins the result.  Only the table fixes
   the order: a block's [tally] field merely finds its record, and every
   reset or rebuild ([reset_tally]) starts a new generation of the table,
   which invalidates them all. *)
module Tally = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The record of a block that has none in the current generation. *)
let no_tally = { bytes = 0.; cap = 0. }

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
  thread_writes : Cells.t;
      (* (block id, offset) pairs written by the current kernel thread:
         re-reads of a thread's own writes hit registers/shared memory
         and cost no global traffic (temporal locality within a thread,
         e.g. the in-block cells of NW/LUD) *)
  kernel_reads_tally : tally Tally.t;
      (* per-kernel DRAM read estimate per block id.  At kernel end each
         block's reads are capped at its footprint - a perfect-L2 model:
         within one kernel launch a location is fetched from DRAM at
         most once (spatial/temporal sharing between threads, e.g.
         stencil neighbours) *)
  mutable tally_gen : int;
      (* the table's generation, from 1: a block's [tally] is its
         record only while its [tally_gen] equals this *)
}

let elem_bytes = 8.0

(* ---------------------------------------------------------------- *)
(* Staged programs                                                   *)
(* ---------------------------------------------------------------- *)

(* A variable reference resolved to its binder's frame slot.  A
   negative reference stands for a name no binder in scope defines
   (entry [-1 - r] of the run's unbound names). *)
type slot = int

(* A statement compiled for one run. *)
type code = state -> unit

(* An index polynomial compiled to a sum of products over slots. *)
type ipoly = state -> int

type rlmad = { roff : ipoly; rdims : (ipoly * ipoly) list }
type ratom = Slot of slot | Const of aval

(* One dimension of a triplet slice: over polynomials when staged, over
   integers when concrete. *)
type 'i sdim = DFix of 'i | DRange of 'i * 'i * 'i (* start, len, step *)

type rslice = RTriplet of ipoly sdim list | RLmad of rlmad

(* A pattern element: where the statement binds it, and its array type
   and annotation, resolved where the statement starts (before it
   binds). *)
type rpat = {
  rv : string; (* source name: labels, trace events, messages *)
  rslot : slot;
  rarr : (sct * ipoly list) option; (* element type and shape *)
  rmem : (slot * rlmad list) option; (* block and index function *)
}

type rblock = { rstms : code array; rres : ratom list }

type rmap = {
  mdims : ipoly list;
  mindices : slot list;
  mbody : rblock;
  mdests : (string * slot) list;
      (* annotated destinations anywhere in the body whose block name
         the launch scope binds, with that launch-scope slot *)
  mreads : slot list;
      (* launch-scope slots of the operands the body mentions, sorted
         by source name *)
}

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
(* Frame access and polynomial evaluation                            *)
(* ---------------------------------------------------------------- *)

let unbound st s = err "exec: unbound %s" st.unbound.(-1 - s)
let not_an st s what = err "exec: %s is not %s" st.names.(s) what

let[@inline] var st (s : slot) = if s >= 0 then st.frame.(s) else unbound st s

let[@inline] arr_var st s =
  match var st s with AArr a -> a | _ -> not_an st s "an array"

let block_var st s =
  match var st s with AMem b -> b | _ -> not_an st s "a memory block"

let[@inline] int_var st s =
  match var st s with
  | AInt i -> i
  | _ -> not_an st s "an integer (in index expression)"

let eval_atom st = function Slot s -> var st s | Const v -> v

(* A sum of monomials, each a coefficient times one factor per unit of
   exponent, flattened into one array: each monomial's coefficient, its
   number of factors, then their slots. *)
let sum_of_products (ms : int array) st =
  let acc = ref 0 and m = ref 0 in
  while !m < Array.length ms do
    let v = ref ms.(!m) and last = !m + 1 + ms.(!m + 1) in
    for f = !m + 2 to last do
      v := !v * int_var st ms.(f)
    done;
    acc := !acc + !v;
    m := last + 1
  done;
  !acc

let eval_lmad st (l : rlmad) : clmad =
  { coff = l.roff st; cdims = List.map (fun (n, s) -> (n st, s st)) l.rdims }

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

(* The flat offset of one element, read or updated.  Under a single
   LMAD it is [coff + Σ iₖ·sₖ], computed from the index polynomials
   directly; a chain goes through [capply]. *)
let rec dot st acc (idxs : ipoly list) dims =
  match (idxs, dims) with
  | [], [] -> acc
  | i :: idxs, (_, s) :: dims -> dot st (acc + (i st * s)) idxs dims
  | _ -> err "exec: index rank mismatch"

let index_offset st (ix : cixfn) (idxs : ipoly list) : int =
  match ix with
  | [ l ] -> dot st l.coff idxs l.cdims
  | _ -> capply ix (List.map (fun i -> i st) idxs)

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
let pat_footprints st (rpats : rpat list) : Trace.footprint list =
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
    rpats

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

(* Empty the tally table, starting its next generation. *)
let reset_tally st =
  Tally.reset st.kernel_reads_tally;
  st.tally_gen <- st.tally_gen + 1

(* A block's record is added to the table on the block's first read in
   a kernel, and found again through the block until the table is next
   reset or rebuilt. *)
let tally_reads st (a : blockv) bytes =
  if a.tally_gen = st.tally_gen then a.tally.bytes <- a.tally.bytes +. bytes
  else begin
    let t =
      match Tally.find_opt st.kernel_reads_tally a.bid with
      | Some t ->
          t.bytes <- t.bytes +. bytes;
          t
      | None ->
          let t = { bytes; cap = float_of_int a.bsize *. elem_bytes } in
          Tally.add st.kernel_reads_tally a.bid t;
          t
    in
    a.tally <- t;
    a.tally_gen <- st.tally_gen
  end

let read_cell st (a : blockv) elt (off : int) : aval =
  (if st.kernel_depth = 0 then
     st.counters.kernel_reads <- st.counters.kernel_reads +. elem_bytes
   else if not (Cells.mem st.thread_writes a.bid off) then
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
  if st.kernel_depth > 0 then Cells.add st.thread_writes a.bid off;
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
             | DFix i -> DFix (i st)
             | DRange (start, len, step) -> DRange (start st, len st, step st))
           sds)
        ix
  | RLmad l -> cslice_lmad (eval_lmad st l) ix

(* ---------------------------------------------------------------- *)
(* Scalar operations (tolerant in cost-only mode)                    *)
(* ---------------------------------------------------------------- *)

(* Every scalar operation a kernel thread performs is one flop. *)
let flop st =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.

(* Each operator as its own function of its operands' values. *)
let binop mode op : aval -> aval -> aval =
  let ill () = err "exec: ill-typed binop" and cost = mode = Cost_only in
  match op with
  | Add -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (x + y)
        | AFloat x, AFloat y -> AFloat (x +. y)
        | _ -> ill ())
  | Sub -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (x - y)
        | AFloat x, AFloat y -> AFloat (x -. y)
        | _ -> ill ())
  | Mul -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (x * y)
        | AFloat x, AFloat y -> AFloat (x *. y)
        | _ -> ill ())
  | Div -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (if y = 0 && cost then 0 else x / y)
        | AFloat x, AFloat y -> AFloat (x /. y)
        | _ -> ill ())
  | Rem -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (if y = 0 && cost then 0 else x mod y)
        | AFloat x, AFloat y -> AFloat (Float.rem x y)
        | _ -> ill ())
  | Min -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (Int.min x y)
        | AFloat x, AFloat y -> AFloat (Float.min x y)
        | _ -> ill ())
  | Max -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> AInt (Int.max x y)
        | AFloat x, AFloat y -> AFloat (Float.max x y)
        | _ -> ill ())
  | And -> (
      fun a b ->
        match (a, b) with ABool x, ABool y -> ABool (x && y) | _ -> ill ())
  | Or -> (
      fun a b ->
        match (a, b) with ABool x, ABool y -> ABool (x || y) | _ -> ill ())

let cmpop op : aval -> aval -> aval =
  let ill () = err "exec: ill-typed cmp" in
  match op with
  | CEq -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> ABool (x = y)
        | AFloat x, AFloat y -> ABool (x = y)
        | ABool x, ABool y -> ABool (x = y)
        | _ -> ill ())
  | CLt -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> ABool (x < y)
        | AFloat x, AFloat y -> ABool (x < y)
        | _ -> ill ())
  | CLe -> (
      fun a b ->
        match (a, b) with
        | AInt x, AInt y -> ABool (x <= y)
        | AFloat x, AFloat y -> ABool (x <= y)
        | _ -> ill ())

let unop mode op : aval -> aval =
  let ill () = err "exec: ill-typed unop" and cost = mode = Cost_only in
  match op with
  | Neg -> (
      function AInt x -> AInt (-x) | AFloat x -> AFloat (-.x) | _ -> ill ())
  | Abs -> (
      function
      | AInt x -> AInt (abs x) | AFloat x -> AFloat (Float.abs x) | _ -> ill ())
  | Sqrt -> (
      function
      | AFloat x -> AFloat (sqrt (if cost then Float.abs x else x))
      | _ -> ill ())
  | Exp -> ( function AFloat x -> AFloat (exp x) | _ -> ill ())
  | Log -> (
      function
      | AFloat x -> AFloat (if x <= 0. && cost then 0. else log x)
      | _ -> ill ())
  | Not -> ( function ABool x -> ABool (not x) | _ -> ill ())
  | ToF64 -> ( function AInt x -> AFloat (float_of_int x) | _ -> ill ())
  | ToI64 -> ( function AFloat x -> AInt (int_of_float x) | _ -> ill ())

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

let arr_of_pat st (p : rpat) : arrv =
  match p.rarr with
  | Some (elt, shape) ->
      let block, ix = dest_of st p in
      { elt; shape = List.map (fun d -> d st) shape; block; ix }
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
(* Blocks, kernels and loops                                         *)
(* ---------------------------------------------------------------- *)

let run_stms st (b : rblock) =
  let stms = b.rstms in
  for i = 0 to Array.length stms - 1 do
    stms.(i) st
  done

let block_values st (b : rblock) : aval list =
  run_stms st b;
  List.map (eval_atom st) b.rres

(* The last-use markers of a top-level statement.  Liveness markers are
   only meaningful at top level: inside a kernel the same body runs once
   per thread, and per-thread "deaths" say nothing about the
   cross-kernel liveness the short-circuiting pass consumed.  A block
   aliased by a value this lexical block returns provably flows past
   every statement here (a rotated loop re-reads the carried buffer next
   iteration; a result block is read by the enclosing code), so a
   last-use marker for a variable living in it would date the block's
   death too early. *)
let release st dying kept =
  let res_bids = List.filter_map (result_bid st) kept in
  List.iter
    (fun v ->
      match st.frame.(v) with
      | AArr a when not (List.mem a.block.bid res_bids) ->
          (match st.tracer with
          | Some tr -> Trace.last_use tr ~var:st.names.(v) ~bid:a.block.bid
          | None -> ());
          pool_free st a.block
      | _ -> ())
    dying

let launch_kernel st ~label ~declared f =
  (* nested parallelism is flattened on a GPU: only top-level mapnests
     pay a launch *)
  let top = st.kernel_depth = 0 in
  let r0 = st.counters.kernel_reads and w0 = st.counters.kernel_writes in
  if top then begin
    st.counters.kernels <- st.counters.kernels + 1;
    st.kernel_scratch <- 0.;
    reset_tally st;
    (* the read-after-own-write suppression is per thread; without
       this reset a reduce/argmin launch inherits the previous
       kernel's final thread and under-counts its first-touch reads *)
    Cells.clear st.thread_writes;
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
    Tally.iter
      (fun _ t ->
        st.counters.kernel_reads <-
          st.counters.kernel_reads +. Float.min t.bytes t.cap)
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

let snapshot (c : Device.counters) =
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
let scale_delta (c : Device.counters) snap factor =
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

(* Mapnest execution: one kernel; full mode iterates every thread,
   cost-only samples the midpoint thread and scales. *)
let exec_map st (rpats : rpat list) (m : rmap) : aval list =
  let dims = List.map (fun d -> d st) m.mdims in
  let points = count dims in
  let outs = List.map (arr_of_pat st) rpats in
  let run_thread idx =
    Cells.clear st.thread_writes;
    List.iter2 (fun slot i -> st.frame.(slot) <- AInt i) m.mindices idx;
    let results = block_values st m.mbody in
    (* implicit write of each per-thread result into its slot *)
    List.iter2
      (fun o r ->
        match r with
        | AArr ra ->
            let slot =
              cslice_triplet
                (List.map (fun i -> DFix i) idx
                @ List.map (fun d -> DRange (0, d, 1)) ra.shape)
                o.ix
            in
            copy_logical st ra.elt ra.shape ra.block ra.ix o.block slot
        | AFloat _ | AInt _ | ABool _ ->
            write_cell st o.block o.elt (capply o.ix idx) r
        | AMem _ -> err "exec: mapnest result mismatch")
      outs results
  in
  launch_kernel st
    ~label:(match rpats with p :: _ -> p.rv | [] -> "map")
    ~declared:(fun () ->
      ( pat_footprints st rpats @ dest_footprints st m,
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
              Tally.fold
                (fun bid t acc ->
                  (bid, { t with bytes = t.bytes *. float_of_int points })
                  :: acc)
                st.kernel_reads_tally []
            in
            reset_tally st;
            List.iter
              (fun (bid, t) -> Tally.replace st.kernel_reads_tally bid t)
              scaled
          end);
      List.map (fun o -> AArr o) outs)

(* A carried array whose block leaves the carried set dies at the end
   of a top-level iteration: its last read was inside this iteration's
   body.  The static analysis attributes the carried value's liveness
   to the loop statement as a whole, so without this marker the trace
   would date the block's death to the previous iteration's intra-body
   markers - before its final read. *)
let retire_carried st params prev vals =
  let new_bids =
    List.filter_map (function AArr a -> Some a.block.bid | _ -> None) vals
  in
  List.iter2
    (fun slot v ->
      match v with
      | AArr a when not (List.mem a.block.bid new_bids) ->
          (match st.tracer with
          | Some tr -> Trace.last_use tr ~var:st.names.(slot) ~bid:a.block.bid
          | None -> ());
          pool_free st a.block
      | _ -> ())
    params prev

(* Simpson-sampled loop: run iterations 0, n/2 and n-1 from the initial
   state and charge n * (d0 + 4*dmid + dlast)/6 - exact for
   per-iteration costs up to quadratic in the index (NW's wavefront,
   LUD's shrinking interior). *)
let simpson st n init run_iter =
  let base = Device.clone st.counters in
  (* The per-kernel read tallies are part of the sampled state: when
     the loop itself runs inside a kernel (NN's per-thread scan) its
     reads accumulate in [kernel_reads_tally], not in the counters, so
     they must be snapshotted and extrapolated with the same Simpson
     weights or the perfect-L2 cap would see only the three sampled
     iterations' reads.  At top level every launch drains its own tally
     and the deltas are empty. *)
  let tally_list () =
    Tally.fold
      (fun k t acc -> (k, t.bytes, t.cap) :: acc)
      st.kernel_reads_tally []
  in
  let tally_restore snap =
    reset_tally st;
    List.iter
      (fun (k, bytes, cap) ->
        Tally.replace st.kernel_reads_tally k { bytes; cap })
      snap
  in
  let tally_delta before =
    Tally.fold
      (fun bid t acc ->
        let prev =
          match List.find_opt (fun (b, _, _) -> b = bid) before with
          | Some (_, b, _) -> b
          | None -> 0.
        in
        if t.bytes > prev then (bid, t.bytes -. prev, t.cap) :: acc else acc)
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
  (* Pool steady state: iteration 0 ran against the live pool (a cold
     start, so its allocations miss); its in-body frees plus the
     emulated death of its carried generation bring the pool to the
     state an arbitrary later iteration starts from, which the mid/last
     samples then see (their allocations hit).  The Simpson weights
     turn that into ~n/6 misses + ~5n/6 hits, against n misses with the
     pool disabled. *)
  (if st.kernel_depth = 0 && st.pool <> None then begin
     let init_bids =
       List.filter_map (function AArr a -> Some a.block.bid | _ -> None) init
     in
     let u = st.unfreed in
     List.iter
       (function
         | AArr a when not (List.mem a.block.bid init_bids) ->
             pool_free st a.block
         | _ -> ())
       vals0;
     (* the sampled blocks' lifetimes were already reverted with the
        counters; only the pool's free-list state is meant to advance
        here *)
     st.unfreed <- u
   end);
  let psteady = Option.map Device.Pool.snapshot st.pool in
  let _, bm, am, tm = sample (n / 2) in
  (match (st.pool, psteady) with
  | Some p, Some s -> Device.Pool.restore p s
  | _ -> ());
  let vals, bl, al, tl = sample (n - 1) in
  Device.assign st.counters base;
  Device.add_simpson st.counters (b0, a0) (bm, am) (bl, al) (float_of_int n);
  tally_restore tbase;
  let wf d0 dm dl = float_of_int n *. (d0 +. (4. *. dm) +. dl) /. 6.0 in
  let find bid ts =
    match List.find_opt (fun (b, _, _) -> b = bid) ts with
    | Some (_, d, _) -> d
    | None -> 0.
  in
  let cap_of bid =
    List.find_map
      (fun (b, _, cap) -> if b = bid then Some cap else None)
      (t0 @ tm @ tl)
  in
  List.iter
    (fun bid ->
      let d = wf (find bid t0) (find bid tm) (find bid tl) in
      match cap_of bid with
      | Some cap when d > 0. -> (
          match Tally.find_opt st.kernel_reads_tally bid with
          | Some t -> t.bytes <- t.bytes +. d
          | None -> Tally.add st.kernel_reads_tally bid { bytes = d; cap })
      | _ -> ())
    (List.sort_uniq compare (List.map (fun (b, _, _) -> b) (t0 @ tm @ tl)));
  vals

(* A block allocation: a pooled (or fresh) device allocation at top
   level, per-thread scratch inside a kernel. *)
let alloc st size ~arena =
  st.last_bid <- st.last_bid + 1;
  let n = size st in
  let b =
    {
      bid = st.last_bid;
      bname = Printf.sprintf "blk%d" st.last_bid;
      bsize = n;
      payload = None;
      devbytes = 0.;
      freed = false;
      tally = no_tally;
      tally_gen = 0;
    }
  in
  if st.kernel_depth = 0 then begin
    st.counters.allocs <- st.counters.allocs + 1;
    st.alloc_seq <- st.alloc_seq + 1;
    (* arena blocks (introduced by the packing pass) are ordinary device
       allocations - one pool transaction each - but counted separately
       so the bench surface can report suballocation *)
    let bytes = float_of_int n *. elem_bytes in
    if arena then begin
      st.counters.arena_allocs <- st.counters.arena_allocs + 1;
      st.counters.arena_bytes <- st.counters.arena_bytes +. bytes
    end;
    st.counters.alloc_bytes <- st.counters.alloc_bytes +. bytes;
    st.counters.live_bytes <- st.counters.live_bytes +. bytes;
    if st.counters.live_bytes > st.counters.peak_bytes then
      st.counters.peak_bytes <- st.counters.live_bytes;
    (* [devbytes > 0] marks the block as device-owned so its death is
       accounted (free list push, or a counted synchronizing free when
       the pool is off); a pool hit overrides it with the possibly
       larger served capacity. *)
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
            (* cap evictions are real device frees: each one pays the
               synchronizing free cost in the time model *)
            st.counters.frees <- st.counters.frees + ev)
    | None -> ()
  end
  else begin
    (* per-thread scratch: lives only for the kernel's duration, but
       while the kernel is in flight every thread's copy exists at
       once, so it counts toward the peak *)
    st.counters.scratch_allocs <- st.counters.scratch_allocs + 1;
    st.alloc_seq <- st.alloc_seq + 1;
    let bytes = float_of_int n *. elem_bytes in
    st.counters.scratch_bytes <- st.counters.scratch_bytes +. bytes;
    st.kernel_scratch <- st.kernel_scratch +. bytes;
    if st.counters.live_bytes +. st.kernel_scratch > st.counters.peak_bytes
    then st.counters.peak_bytes <- st.counters.live_bytes +. st.kernel_scratch;
    if st.oom_at > 0 && st.alloc_seq = st.oom_at then
      device_fault st (Core.Fault.Device_oom { bytes; at_alloc = st.alloc_seq })
  end;
  (match st.tracer with
  | Some tr ->
      Trace.alloc tr ~bid:b.bid ~name:b.bname ~elems:n
        ~in_kernel:(st.kernel_depth > 0)
  | None -> ());
  b

(* ---------------------------------------------------------------- *)
(* Staging: binders to frame slots, statements to closures           *)
(* ---------------------------------------------------------------- *)

type resolver = {
  rmode : mode;
  mutable nslots : int;
  mutable slots : string list; (* source name of each slot, newest first *)
  mutable nfree : int;
  mutable free : string list; (* unbound names, newest first *)
  mutable mentioned : string list option;
      (* operand names met in the innermost enclosing mapnest body;
         None outside every kernel *)
}

let fresh r v =
  let s = r.nslots in
  r.nslots <- s + 1;
  r.slots <- v :: r.slots;
  s

let bind r scope v =
  let s = fresh r v in
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

(* An index polynomial compiled to a sum of products over slots, with
   closures of their own for the shapes most indices take: a constant, a
   variable, a variable plus a constant. *)
let poly r scope (p : P.t) : ipoly =
  let factors (x, e) =
    let s = use r scope x in
    List.init e (fun _ -> s)
  in
  match
    List.map
      (fun (m : P.mono) ->
        (m.coeff, Array.of_list (List.concat_map factors m.pows)))
      (P.monos p)
  with
  | [] -> fun _ -> 0
  | [ (c, [||]) ] -> fun _ -> c
  | [ (1, [| x |]) ] -> fun st -> int_var st x
  | [ (1, [| x |]); (c, [||]) ] -> fun st -> int_var st x + c
  | ms ->
      let ms =
        Array.concat
          (List.map
             (fun (c, xs) -> Array.append [| c; Array.length xs |] xs)
             ms)
      in
      fun st -> sum_of_products ms st

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

(* Results that come back as a list (kernel launches, ifs) are stored
   through a check of the pattern's arity. *)
let store_all rpats : state -> aval list -> unit =
  let slots = List.map (fun p -> p.rslot) rpats in
  fun st vs ->
    if List.compare_lengths vs slots <> 0 then err "exec: arity mismatch";
    List.iter2 (fun slot v -> st.frame.(slot) <- v) slots vs

(* The offset of one element of [a] at the indices [idxs], specialised
   on their number: one or two indices under a single LMAD of that rank
   take no list. *)
let element_offset (idxs : ipoly list) : state -> arrv -> int =
  match idxs with
  | [ i ] -> (
      fun st a ->
        match a.ix with
        | [ { coff; cdims = [ (_, s) ] } ] -> coff + (i st * s)
        | ix -> index_offset st ix idxs)
  | [ i; j ] -> (
      fun st a ->
        match a.ix with
        | [ { coff; cdims = [ (_, s); (_, t) ] } ] ->
            let x = i st in
            coff + (x * s) + (j st * t)
        | ix -> index_offset st ix idxs)
  | _ -> fun st a -> index_offset st a.ix idxs

(* [s]'s expression compiled to store into its pattern [rpats].  A
   single-valued expression stores into its pattern's one slot, and
   under any other arity raises when it runs, as a list-valued one does
   through [store_all]. *)
let rec exp r scope (rpats : rpat list) (s : stm) : code =
  let atom = atom r scope and operand = operand r scope in
  let poly = poly r scope in
  let single (k : rpat -> code) : code =
    match rpats with [ p ] -> k p | _ -> fun _ -> err "exec: arity mismatch"
  in
  (* an operation on two slots, or on a slot and a constant, reads the
     frame directly *)
  let binary f a b =
    let a = atom a and b = atom b in
    single (fun { rslot = out; _ } ->
        match (a, b) with
        | Slot x, Slot y when x >= 0 && y >= 0 ->
            fun st ->
              let fr = st.frame in
              flop st;
              fr.(out) <- f fr.(x) fr.(y)
        | Slot x, Const c when x >= 0 ->
            fun st ->
              flop st;
              st.frame.(out) <- f st.frame.(x) c
        | a, b ->
            fun st ->
              let a = eval_atom st a in
              let b = eval_atom st b in
              flop st;
              st.frame.(out) <- f a b)
  in
  match s.exp with
  | EAtom a ->
      let a = atom a in
      single (fun { rslot = out; _ } st -> st.frame.(out) <- eval_atom st a)
  | EBin (op, a, b) -> binary (binop r.rmode op) a b
  | ECmp (op, a, b) -> binary (cmpop op) a b
  | EUn (op, a) ->
      let f = unop r.rmode op and a = atom a in
      single (fun { rslot = out; _ } st ->
          let a = eval_atom st a in
          flop st;
          st.frame.(out) <- f a)
  | EIdx p ->
      let p = poly p in
      single (fun { rslot = out; _ } st -> st.frame.(out) <- AInt (p st))
  | EIndex (v, idxs) ->
      let v = operand v and offset = element_offset (List.map poly idxs) in
      single (fun { rslot = out; _ } st ->
          let a = arr_var st v in
          st.frame.(out) <- read_cell st a.block a.elt (offset st a))
  | EUpdate { dst; slc = STriplet sds; src = SrcScalar a }
    when List.for_all (function SFix _ -> true | SRange _ -> false) sds ->
      (* an update of one element: the result is the updated array's
         own value *)
      let dst = operand dst
      and offset =
        element_offset
          (List.filter_map (function SFix i -> Some (poly i) | _ -> None) sds)
      and a = atom a in
      single (fun { rslot = out; _ } st ->
          let v = var st dst in
          let d = match v with AArr d -> d | _ -> not_an st dst "an array" in
          let off = offset st d in
          write_cell st d.block d.elt off (eval_atom st a);
          st.frame.(out) <- v)
  | ESlice (v, _) | ETranspose (v, _) | EReshape (v, _) | EReverse (v, _) ->
      (* O(1): the result's annotation holds the transformed ixfn *)
      let v = operand v in
      single (fun p st ->
          let a = arr_var st v in
          let _, ix = dest_of st p in
          st.frame.(p.rslot) <-
            AArr
              {
                elt = a.elt;
                shape =
                  (match p.rarr with
                  | Some (_, shape) -> List.map (fun d -> d st) shape
                  | None -> err "exec: view with non-array pattern");
                block = a.block;
                ix;
              })
  | EIota n ->
      let n = poly n in
      single (fun p st ->
          let o = arr_of_pat st p in
          let n = n st in
          st.frame.(p.rslot) <-
            launch_kernel st ~label:p.rv
              ~declared:(fun () -> (pat_footprints st rpats, [], n))
              (fun () ->
                (match st.mode with
                | Full ->
                    for i = 0 to n - 1 do
                      write_cell st o.block o.elt (capply o.ix [ i ]) (AInt i)
                    done
                | Cost_only ->
                    st.counters.kernel_writes <-
                      st.counters.kernel_writes
                      +. (float_of_int n *. elem_bytes));
                AArr o))
  | EReplicate (_, a) ->
      let a = atom a in
      single (fun p st ->
          let o = arr_of_pat st p in
          let v = eval_atom st a in
          st.frame.(p.rslot) <-
            launch_kernel st ~label:p.rv
              ~declared:(fun () -> (pat_footprints st rpats, [], count o.shape))
              (fun () ->
                let n = count o.shape in
                (match st.mode with
                | Full ->
                    List.iter
                      (fun idx ->
                        write_cell st o.block o.elt (capply o.ix idx) v)
                      (indices o.shape)
                | Cost_only ->
                    st.counters.kernel_writes <-
                      st.counters.kernel_writes
                      +. (float_of_int n *. elem_bytes));
                AArr o))
  | EScratch _ ->
      (* no writes: just bind the destination *)
      single (fun p st -> st.frame.(p.rslot) <- AArr (arr_of_pat st p))
  | ECopy v ->
      let v = operand v in
      single (fun p st ->
          let a = arr_var st v in
          let db, dix = dest_of st p in
          copy_logical st a.elt a.shape a.block a.ix db dix;
          st.frame.(p.rslot) <- AArr { a with block = db; ix = dix })
  | EConcat vs ->
      let vs = List.map operand vs in
      single (fun p st ->
          let o = arr_of_pat st p in
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
            vs;
          st.frame.(p.rslot) <- AArr o)
  | EUpdate { dst; slc; src } ->
      let write =
        match src with
        | SrcArr v ->
            let v = operand v in
            fun st (d : arrv) tix ->
              let sa = arr_var st v in
              copy_logical st sa.elt sa.shape sa.block sa.ix d.block tix
        | SrcScalar a ->
            let a = atom a in
            fun st d tix ->
              let v = eval_atom st a in
              write_cell st d.block d.elt (capply tix []) v
      in
      let dst = operand dst and slc = slice r scope slc in
      single (fun { rslot = out; _ } st ->
          let v = var st dst in
          let d = match v with AArr d -> d | _ -> not_an st dst "an array" in
          write st d (cslice st slc d.ix);
          st.frame.(out) <- v)
  | EMap { nest; body } ->
      let mdims = List.map (fun (_, n) -> poly n) nest in
      let mindices, inner = bind_all r scope (List.map fst nest) in
      let outer = r.mentioned in
      r.mentioned <- Some [];
      let mbody = block r inner body in
      let mentioned = Option.value r.mentioned ~default:[] in
      r.mentioned <- Option.map (List.rev_append mentioned) outer;
      let m =
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
      in
      let store = store_all rpats in
      fun st -> store st (exec_map st rpats m)
  | EReduce { op; ne; arr } ->
      let f = binop r.rmode op and ne = atom ne and arr = operand arr in
      let label = match rpats with p :: _ -> p.rv | [] -> "reduce" in
      let store = store_all rpats in
      fun st ->
        let a = arr_var st arr in
        let n = count a.shape in
        store st
        @@ launch_kernel st ~label
             ~declared:(fun () -> ([], [ arr_footprint st.names.(arr) a ], n))
             (fun () ->
               match st.mode with
               | Full ->
                   let acc = ref (eval_atom st ne) in
                   for i = 0 to n - 1 do
                     let x = read_cell st a.block a.elt (capply a.ix [ i ]) in
                     flop st;
                     acc := f !acc x
                   done;
                   [ !acc ]
               | Cost_only ->
                   tally_reads st a.block (float_of_int n *. elem_bytes);
                   st.counters.flops <- st.counters.flops +. float_of_int n;
                   [ eval_atom st ne ])
  | EArgmin arr ->
      let arr = operand arr in
      let label = match rpats with p :: _ -> p.rv | [] -> "argmin" in
      let store = store_all rpats in
      fun st ->
        let a = arr_var st arr in
        let n = count a.shape in
        store st
        @@ launch_kernel st ~label
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
  | ELoop { params; var; bound; body } ->
      let inits = List.map (fun (_, init) -> atom init) params in
      let lbound = poly bound in
      let lparams, inner =
        bind_all r scope (List.map (fun ((pe : pat_elem), _) -> pe.pv) params)
      in
      let lcounter, inner = bind r inner var in
      let lbody = block r inner body in
      if
        List.compare_lengths lbody.rres lparams <> 0
        || List.compare_lengths rpats lparams <> 0
      then fun _ -> err "exec: arity mismatch"
      else
        (* cost-only runs sample a long loop unless it carries an integer *)
        let sampled =
          r.rmode = Cost_only
          && not
               (List.exists
                  (fun ((pe : pat_elem), _) -> pe.pt = TScalar I64)
                  params)
        in
        let run_iter st vals i =
          List.iter2 (fun slot v -> st.frame.(slot) <- v) lparams vals;
          st.frame.(lcounter) <- AInt i;
          block_values st lbody
        in
        (* unsampled, each iteration reads its parameters from, and leaves
           its results in, one array of values *)
        let params = Array.of_list lparams
        and results = Array.of_list lbody.rres
        and outs = Array.of_list (List.map (fun p -> p.rslot) rpats) in
        fun st ->
          let n = lbound st in
          if sampled && n >= 24 then
            List.iteri
              (fun k v -> st.frame.(outs.(k)) <- v)
              (simpson st n (List.map (eval_atom st) inits) (run_iter st))
          else begin
            let fr = st.frame
            and vals = Array.of_list (List.map (eval_atom st) inits) in
            let carry () =
              for k = 0 to Array.length results - 1 do
                vals.(k) <- eval_atom st results.(k)
              done
            in
            for i = 0 to n - 1 do
              for k = 0 to Array.length params - 1 do
                fr.(params.(k)) <- vals.(k)
              done;
              fr.(lcounter) <- AInt i;
              run_stms st lbody;
              if st.kernel_depth = 0 then begin
                let prev = Array.to_list vals in
                carry ();
                retire_carried st lparams prev (Array.to_list vals)
              end
              else carry ()
            done;
            for k = 0 to Array.length outs - 1 do
              fr.(outs.(k)) <- vals.(k)
            done
          end
  | EIf { cond; tb; fb } -> (
      let cond = atom cond in
      let tb = block r scope tb and fb = block r scope fb in
      let branch st =
        match eval_atom st cond with
        | ABool true -> tb
        | ABool false -> fb
        | _ -> err "exec: non-boolean condition"
      in
      match (rpats, tb.rres, fb.rres) with
      | [ p ], [ _ ], [ _ ] ->
          let out = p.rslot in
          fun st ->
            let b = branch st in
            run_stms st b;
            st.frame.(out) <- eval_atom st (List.hd b.rres)
      | _ ->
          let store = store_all rpats in
          fun st -> store st (block_values st (branch st)))
  | EAlloc size ->
      let size = poly size
      and arena =
        match s.pat with [ pe ] -> Core.Pack.is_arena pe.pv | _ -> false
      in
      single (fun { rslot = out; _ } st ->
          st.frame.(out) <- AMem (alloc st size ~arena))

(* A statement: its pattern's slots, its expression compiled to store
   into them, and the last-use markers it carries; the scope it returns
   binds the pattern's names. *)
and stm r scope res_vars res_blocks (s : stm) =
  let rpats =
    List.map
      (fun (pe : pat_elem) ->
        let rarr, rmem = dest r scope pe in
        { rv = pe.pv; rslot = fresh r pe.pv; rarr; rmem })
      s.pat
  in
  let code = exp r scope rpats s in
  let scope =
    List.fold_left (fun scope p -> Scope.add p.rv p.rslot scope) scope rpats
  in
  let dying = List.filter_map (fun v -> Scope.find_opt v scope) s.last_uses in
  if dying = [] then (scope, code)
  else
    (* per result variable of the enclosing block, as seen right after
       the statement: its own slot, and the slot of the block its
       annotation names *)
    let kept =
      List.map
        (fun v ->
          ( Scope.find_opt v scope,
            Option.bind
              (Scope.find_opt v (Lazy.force res_blocks))
              (fun bname -> Scope.find_opt bname scope) ))
        res_vars
    in
    ( scope,
      fun st ->
        code st;
        if st.kernel_depth = 0 then release st dying kept )

and block r scope (b : block) : rblock =
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
      (fun (scope, acc) s ->
        let scope, code = stm r scope res_vars res_blocks s in
        (scope, code :: acc))
      (scope, []) b.stms
  in
  {
    rstms = Array.of_list (List.rev stms);
    rres = List.map (atom r scope) b.res;
  }

(* Stage a whole program: its parameters (each array parameter's memory
   block first, then the parameter), then its body. *)
let resolve mode (p : prog) =
  let r =
    {
      rmode = mode;
      nslots = 0;
      slots = [];
      nfree = 0;
      free = [];
      mentioned = None;
    }
  in
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
  let body = block r scope p.body in
  (List.rev params, body, r)

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
          tally = no_tally;
          tally_gen = 0;
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
  let params, body, r = resolve mode p in
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
      thread_writes = Cells.create ();
      kernel_reads_tally = Tally.create 64;
      tally_gen = 1;
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
  let res = Fun.protect ~finally:teardown (fun () -> block_values st body) in
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

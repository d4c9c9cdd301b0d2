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
   its own slot in the frame of its declared kind: i64s and bools (as 0
   or 1) in an [int array], f64s in a flat [float array], arrays and
   memory blocks in arrays of their own.  Constants get preloaded slots
   too, so every operand is a slot.  Every statement compiles to one
   closure over the run's state, specialised on its operator and on its
   operands' kinds: an [Add] of two f64 slots is [flts.(o) <- flts.(x)
   +. flts.(y)], with no tag to match and nothing to box.  Element
   reads and writes move payload cells straight to and from the typed
   frames, and loop carries, [if] results and per-thread results are
   typed slot-to-slot moves.  Each index polynomial is compiled to a
   sum of products over int slots, or to a closure of its own when it
   is a constant, a variable or a variable plus a constant.  Loops, ifs
   and mapnests run arrays of compiled statements, and every loop has a
   pre-header that runs once per execution of the loop, after its bound
   and before its first iteration (so before Simpson's samples): for
   each polynomial in the loop's body, the monomials over slots bound
   outside the body, which no iteration can change, are summed there
   into a slot of their own, and the polynomial reads that slot plus
   what varies ([h + x] and [h + c·x·y] have closures of their own).
   The same walk records once the facts a run would otherwise re-derive
   at every execution: a mapnest's declared reads and destinations in
   its launch scope, the blocks a lexical block's results live in, and
   which loops carry an integer.  Scoping is lexical (a block returns
   values, never bindings), so a slot is always written before it is
   read.  What the walk finds wrong - a name no binder in scope
   defines, operands of the wrong kinds, a pattern of the wrong arity -
   compiles to a closure that raises [Exec_error] only if the run
   evaluates it.  Frame and closures live for one run.  Block
   ids are numbered per run, from 1, so a run is a pure function of
   (program, arguments): running a program twice in one process gives
   equal counters and byte-identical traces.

   The per-statement path allocates nothing: scalar operations, index
   polynomials, element reads and single-element updates work in the
   typed frames, and the float counters a kernel thread bumps live in
   an all-float record ([hot]), stored flat, while [Device.counters]'
   mixed record would box each update.  What still allocates is
   per-array and per-launch work: views, copies, allocations and
   kernel launches build their records and concrete index functions,
   Full-mode copies walk lists of indices, and the Simpson sampler
   snapshots its counters.

   The per-element path - what a kernel thread does for each element it
   reads or writes - builds no list and hashes nothing.  An element
   read, or an update of one element, under a single-LMAD index function
   computes its flat offset [coff + Σ iₖ·sₖ] from its index polynomials
   directly (chains unrank through [capply]), the loop-invariant part of
   each index polynomial read from its pre-header's slot.  The cells a
   thread has written, which make its re-reads free, live in an
   open-addressing set of (block id, offset) pairs that clears in O(1)
   for every thread ([Cells]); a block carries the set's generation of
   its last in-kernel write, so a read probes the set only in a block
   the thread in flight has written.  The per-kernel read tallies live
   in an int-keyed table whose iteration order decides the capped float
   sums, so its hash and its sequence of updates are part of the cost
   model ([Tally]).  The table alone fixes that order; a block only
   remembers its record in it, so a read reaches the table once per
   block and kernel. *)

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

(* One block's DRAM reads in the kernel in flight, and its footprint in
   bytes, the perfect-L2 cap on them. *)
type tally = { mutable bytes : float; cap : float }

type blockv = {
  bid : int; (* unique id *)
  bname : string;
  bsize : int; (* elements *)
  mutable fcells : float array;
  mutable icells : int array;
  mutable bcells : bool array;
      (* Full-mode contents, one array per element type, each made on
         first use: a packed arena or a reused block holds arrays of
         different element types in disjoint regions *)
  mutable devbytes : float;
      (* device bytes the pool served for this block; 0 when the block
         is not pool-owned (inputs, scratch, pool disabled) *)
  mutable freed : bool; (* currently sitting on a pool free list *)
  mutable tally : tally;
      (* the block's record in the read tally table, valid while
         [tally_gen] is the table's generation *)
  mutable tally_gen : int;
  mutable wgen : int;
      (* the [Cells] generation of the block's last in-kernel write: the
         thread in flight has written it only if this is the set's
         current generation *)
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
  val gen : t -> int
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

  let gen t = t.gen

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

(* The float counters a kernel thread bumps per operation, element read
   and element write, and the scratch of the kernel in flight.
   [Device.counters] mixes int and float fields, so its floats are
   boxed and every update of one allocates; an all-float record is
   stored flat.  During a run [flops], [kwrites] and [kreads] hold the
   current values of the counters' [flops], [kernel_writes] and
   [kernel_reads], whose own fields are stale: [flush] writes them back
   before the counters are read as a whole, and [reload] takes them up
   again after the counters are replaced as a whole. *)
type hot = {
  mutable flops : float;
  mutable kwrites : float;
  mutable kreads : float;
  mutable kscratch : float;
      (* bytes of per-thread scratch allocated by the kernel currently
         in flight (CUDA local-memory model): raises the peak while the
         kernel runs, released when it retires *)
}

type state = {
  mode : mode;
  counters : Device.counters;
  hot : hot;
  ints : int array; (* i64 and bool slots; a bool is 0 or 1 *)
  flts : float array; (* f64 slots *)
  arrs : arrv array; (* array slots *)
  mems : blockv array; (* memory block slots *)
  mutable last_bid : int; (* block ids are numbered per run, from 1 *)
  mutable pool : Device.Pool.t option;
      (* pooled allocator serving top-level [EAlloc]s; None = every
         allocation is a fresh device allocation (the --no-pool model).
         Mutable: a contained device fault degrades the run to
         unpooled execution by flushing and dropping the pool. *)
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

let flush st =
  st.counters.flops <- st.hot.flops;
  st.counters.kernel_writes <- st.hot.kwrites;
  st.counters.kernel_reads <- st.hot.kreads

let reload st =
  st.hot.flops <- st.counters.flops;
  st.hot.kwrites <- st.counters.kernel_writes;
  st.hot.kreads <- st.counters.kernel_reads

(* What an array or block slot holds before its binder runs: a block
   with no id, never allocated, read or freed. *)
let no_block =
  {
    bid = 0;
    bname = "";
    bsize = 0;
    fcells = [||];
    icells = [||];
    bcells = [||];
    devbytes = 0.;
    freed = false;
    tally = no_tally;
    tally_gen = 0;
    wgen = 0;
  }

let no_arr = { elt = F64; shape = []; block = no_block; ix = [] }

(* ---------------------------------------------------------------- *)
(* Staged programs                                                   *)
(* ---------------------------------------------------------------- *)

(* The frame a binder's slot lives in, by its declared type.  Bools
   share the int frame but keep their own kind, so an operation that
   mixes them is still ill-typed. *)
type kind = KInt | KFloat | KBool | KArr | KMem

(* An operand resolved where the statement is staged: a slot of its
   binder's kind (constants have preloaded slots), or a name no binder
   in scope defines. *)
type opnd = Slot of kind * int | Free of string

(* A statement compiled for one run. *)
type code = state -> unit

(* An index polynomial compiled to a sum of products over int slots. *)
type ipoly = state -> int

type rlmad = { roff : ipoly; rdims : (ipoly * ipoly) list }

(* One dimension of a triplet slice: over polynomials when staged, over
   integers when concrete. *)
type 'i sdim = DFix of 'i | DRange of 'i * 'i * 'i (* start, len, step *)

type rslice = RTriplet of ipoly sdim list | RLmad of rlmad

(* A pattern element: where the statement binds it, and its array type
   and annotation, resolved where the statement starts (before it
   binds).  Loop temporaries are pattern elements with neither. *)
type rpat = {
  rv : string; (* source name: labels, trace events, messages *)
  rk : kind;
  rslot : int;
  rarr : (sct * ipoly list) option; (* element type and shape *)
  rmem : (string * opnd * rlmad list) option;
      (* block name and reference, index function *)
}

type rblock = { rstms : code array; rres : opnd list }

type rmap = {
  mdims : ipoly list;
  mindices : int array; (* int slots *)
  mbody : rblock;
  mwrite : state -> arrv array -> int array -> unit;
      (* the thread's results into the outputs *)
  mdests : (string * int) list;
      (* annotated destinations anywhere in the body whose block name
         the launch scope binds to a block slot *)
  mreads : (string * int) list;
      (* launch-scope array slots of the operands the body mentions,
         sorted by source name *)
}

(* A staged statement that raises when it runs. *)
let fail fmt = Fmt.kstr (fun s (_ : state) -> raise (Exec_error s)) fmt

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

(* Contain a device-layer fault, the executor's rung of the
   degradation ladder: the pool's cached blocks are all released -
   priced as synchronizing device frees, the penalty of degrading - and
   the run continues unpooled, every further allocation a fresh device
   allocation. *)
let device_fault st (f : Core.Fault.t) =
  st.exec_faults <- f :: st.exec_faults;
  (match st.pool with
  | Some p ->
      let released = Device.Pool.flush p in
      st.counters.frees <- st.counters.frees + released
  | None -> ());
  st.pool <- None

(* ---------------------------------------------------------------- *)
(* Frame access and polynomial evaluation                            *)
(* ---------------------------------------------------------------- *)

(* The block a pattern's annotation names. *)
let mem_ref st name = function
  | Slot (KMem, m) -> st.mems.(m)
  | Free v -> err "exec: unbound %s" v
  | Slot _ -> err "exec: %s is not a memory block" name

(* A sum of monomials, each a coefficient times one factor per unit of
   exponent, flattened into one array: each monomial's coefficient, its
   number of factors, then their int slots. *)
let sum_of_products (ms : int array) st =
  let ints = st.ints in
  let acc = ref 0 and m = ref 0 in
  while !m < Array.length ms do
    let v = ref ms.(!m) and last = !m + 1 + ms.(!m + 1) in
    for f = !m + 2 to last do
      v := !v * ints.(ms.(f))
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

(* The offset of element [i] of a one-dimensional view. *)
let flat_offset (ix : cixfn) i =
  match ix with
  | [ { coff; cdims = [ (_, s) ] } ] -> coff + (i * s)
  | _ -> capply ix [ i ]

(* The offset of a mapnest thread's element, at the indices [idx]. *)
let thread_offset (ix : cixfn) (idx : int array) =
  match ix with
  | [ { coff; cdims } ]
    when List.compare_length_with cdims (Array.length idx) = 0 ->
      let rec go acc k = function
        | [] -> acc
        | (_, s) :: dims -> go (acc + (idx.(k) * s)) (k + 1) dims
      in
      go coff 0 cdims
  | _ -> capply ix (Array.to_list idx)

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
      | Some _, Some (_, blk, ix) -> (
          match blk with
          | Slot (KMem, m) ->
              Some
                {
                  Trace.fvar = p.rv;
                  fbid = st.mems.(m).bid;
                  fregion = try_region st ix;
                }
          | Free v -> err "exec: unbound %s" v
          | Slot _ -> None)
      | _ -> None)
    rpats

(* Hoisted destinations inside a mapnest body, as declared writes. *)
let dest_footprints st (m : rmap) : Trace.footprint list =
  List.map
    (fun (v, slot) ->
      { Trace.fvar = v; fbid = st.mems.(slot).bid; fregion = None })
    m.mdests

(* Declared read footprints of a mapnest body: the full (concrete) view
   of every outer array the body mentions by name. *)
let read_footprints st (m : rmap) : Trace.footprint list =
  List.map (fun (v, slot) -> arr_footprint v st.arrs.(slot)) m.mreads

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

let fcells (b : blockv) =
  if Array.length b.fcells < b.bsize then b.fcells <- Array.make b.bsize 0.;
  b.fcells

let icells (b : blockv) =
  if Array.length b.icells < b.bsize then b.icells <- Array.make b.bsize 0;
  b.icells

let bcells (b : blockv) =
  if Array.length b.bcells < b.bsize then b.bcells <- Array.make b.bsize false;
  b.bcells

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

(* Count and trace one element read; Full mode bounds-checks it.  Only a
   block the thread in flight has written can hold the cell read. *)
let note_read st (a : blockv) (off : int) =
  (if st.kernel_depth = 0 then st.hot.kreads <- st.hot.kreads +. elem_bytes
   else if
     a.wgen <> Cells.gen st.thread_writes
     || not (Cells.mem st.thread_writes a.bid off)
   then tally_reads st a elem_bytes);
  (match st.tracer with
  | Some tr when st.kernel_depth > 0 -> Trace.kernel_read tr ~bid:a.bid ~off
  | _ -> ());
  if st.mode = Full && (off < 0 || off >= a.bsize) then
    err "exec: read out of bounds in %s (%d / %d)" a.bname off a.bsize

(* Read one element into slot [o] of the frame of kind [k].  Cost-only
   runs read placeholders: 0.5, 0 and true. *)
let read_slot st (a : blockv) elt (off : int) k o =
  note_read st a off;
  match st.mode with
  | Cost_only -> (
      match k with
      | KFloat -> st.flts.(o) <- 0.5
      | KInt -> st.ints.(o) <- 0
      | KBool -> st.ints.(o) <- 1
      | KArr | KMem -> err "exec: type mismatch reading %s" a.bname)
  | Full -> (
      match (elt, k) with
      | F64, KFloat -> st.flts.(o) <- (fcells a).(off)
      | I64, KInt -> st.ints.(o) <- (icells a).(off)
      | Bool, KBool -> st.ints.(o) <- Bool.to_int (bcells a).(off)
      | _ -> err "exec: type mismatch reading %s" a.bname)

(* Count and trace one element write, and return the offset it lands
   at; Full mode bounds-checks it. *)
let note_write st (a : blockv) (off : int) =
  if a.freed then pool_revive st a;
  let off =
    match st.mutation with
    | Some Off_by_one_write when st.kernel_depth > 0 -> off + 1
    | _ -> off
  in
  st.hot.kwrites <- st.hot.kwrites +. elem_bytes;
  if st.kernel_depth > 0 then begin
    Cells.add st.thread_writes a.bid off;
    a.wgen <- Cells.gen st.thread_writes
  end;
  (match st.tracer with
  | Some tr when st.kernel_depth > 0 -> Trace.kernel_write tr ~bid:a.bid ~off
  | _ -> ());
  if st.mode = Full && (off < 0 || off >= a.bsize) then
    err "exec: write out of bounds in %s (%d / %d)" a.bname off a.bsize;
  off

let write_mismatch (a : blockv) = err "exec: type mismatch writing %s" a.bname

(* Write slot [s] of the frame of kind [k] into one element. *)
let write_slot st (a : blockv) elt (off : int) k s =
  let off = note_write st a off in
  if st.mode = Full then
    match (elt, k) with
    | F64, KFloat -> (fcells a).(off) <- st.flts.(s)
    | I64, KInt -> (icells a).(off) <- st.ints.(s)
    | Bool, KBool -> (bcells a).(off) <- st.ints.(s) <> 0
    | _ -> write_mismatch a

(* Write an integer (an iota element) into one element. *)
let write_int st (a : blockv) elt (off : int) v =
  let off = note_write st a off in
  if st.mode = Full then
    match elt with I64 -> (icells a).(off) <- v | _ -> write_mismatch a

(* Raw data movement that bypasses the kernel counters (used by copy
   accounting, which maintains its own counters). *)
let move_cell (src : blockv) (dst : blockv) elt (soff : int) (doff : int) :
    unit =
  match elt with
  | F64 -> (fcells dst).(doff) <- (fcells src).(soff)
  | I64 -> (icells dst).(doff) <- (icells src).(soff)
  | Bool -> (bcells dst).(doff) <- (bcells src).(soff)

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
      st.hot.kwrites <- st.hot.kwrites +. bytes
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
let[@inline] flop st =
  if st.kernel_depth > 0 then st.hot.flops <- st.hot.flops +. 1.

(* [p]'s slot, when [p] is of kind [k]: the result of an expression of
   that kind is stored there. *)
let typed (p : rpat) k (c : int -> code) : code =
  if p.rk = k then c p.rslot else fail "exec: ill-typed binding of %s" p.rv

(* Each operator compiled on its operands' kinds, into [p]'s slot.  An
   unbound operand raises first, in operand order, then ill-typed
   operands, then a result [p] cannot hold. *)
let binop mode op a b (p : rpat) : code =
  let cost = mode = Cost_only in
  match (a, b) with
  | Free v, _ | _, Free v -> fail "exec: unbound %s" v
  | Slot (KInt, x), Slot (KInt, y) -> (
      let int c = typed p KInt c in
      (* ints cross a call unboxed: the rarer operators share one shape *)
      let ints f =
        int (fun o st ->
            flop st;
            let i = st.ints in
            i.(o) <- f i.(x) i.(y))
      in
      match op with
      | Add ->
          int (fun o st ->
              flop st;
              let i = st.ints in
              i.(o) <- i.(x) + i.(y))
      | Sub ->
          int (fun o st ->
              flop st;
              let i = st.ints in
              i.(o) <- i.(x) - i.(y))
      | Mul ->
          int (fun o st ->
              flop st;
              let i = st.ints in
              i.(o) <- i.(x) * i.(y))
      | Div -> ints (fun a d -> if d = 0 && cost then 0 else a / d)
      | Rem -> ints (fun a d -> if d = 0 && cost then 0 else a mod d)
      | Min -> ints Int.min
      | Max -> ints Int.max
      | And | Or -> fail "exec: ill-typed binop")
  | Slot (KFloat, x), Slot (KFloat, y) -> (
      let flt c = typed p KFloat c in
      match op with
      | Add ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- f.(x) +. f.(y))
      | Sub ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- f.(x) -. f.(y))
      | Mul ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- f.(x) *. f.(y))
      | Div ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- f.(x) /. f.(y))
      | Rem ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- Float.rem f.(x) f.(y))
      | Min ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- Float.min f.(x) f.(y))
      | Max ->
          flt (fun o st ->
              flop st;
              let f = st.flts in
              f.(o) <- Float.max f.(x) f.(y))
      | And | Or -> fail "exec: ill-typed binop")
  | Slot (KBool, x), Slot (KBool, y) -> (
      match op with
      | And ->
          typed p KBool (fun o st ->
              flop st;
              let i = st.ints in
              i.(o) <- i.(x) land i.(y))
      | Or ->
          typed p KBool (fun o st ->
              flop st;
              let i = st.ints in
              i.(o) <- i.(x) lor i.(y))
      | _ -> fail "exec: ill-typed binop")
  | Slot _, Slot _ -> fail "exec: ill-typed binop"

(* Floats compare by IEEE [=], [<] and [<=], as the interpreter does. *)
let cmpop op a b (p : rpat) : code =
  let bool c = typed p KBool c in
  match (a, b, op) with
  | Free v, _, _ | _, Free v, _ -> fail "exec: unbound %s" v
  | Slot (KInt, x), Slot (KInt, y), CEq ->
      bool (fun o st ->
          flop st;
          let i = st.ints in
          i.(o) <- Bool.to_int (i.(x) = i.(y)))
  | Slot (KInt, x), Slot (KInt, y), CLt ->
      bool (fun o st ->
          flop st;
          let i = st.ints in
          i.(o) <- Bool.to_int (i.(x) < i.(y)))
  | Slot (KInt, x), Slot (KInt, y), CLe ->
      bool (fun o st ->
          flop st;
          let i = st.ints in
          i.(o) <- Bool.to_int (i.(x) <= i.(y)))
  | Slot (KFloat, x), Slot (KFloat, y), CEq ->
      bool (fun o st ->
          flop st;
          let f = st.flts in
          st.ints.(o) <- Bool.to_int (f.(x) = f.(y)))
  | Slot (KFloat, x), Slot (KFloat, y), CLt ->
      bool (fun o st ->
          flop st;
          let f = st.flts in
          st.ints.(o) <- Bool.to_int (f.(x) < f.(y)))
  | Slot (KFloat, x), Slot (KFloat, y), CLe ->
      bool (fun o st ->
          flop st;
          let f = st.flts in
          st.ints.(o) <- Bool.to_int (f.(x) <= f.(y)))
  | Slot (KBool, x), Slot (KBool, y), CEq ->
      bool (fun o st ->
          flop st;
          let i = st.ints in
          i.(o) <- Bool.to_int (i.(x) = i.(y)))
  | _ -> fail "exec: ill-typed cmp"

let unop mode op a (p : rpat) : code =
  let cost = mode = Cost_only in
  let int c = typed p KInt c and flt c = typed p KFloat c in
  match (op, a) with
  | _, Free v -> fail "exec: unbound %s" v
  | Neg, Slot (KInt, x) ->
      int (fun o st ->
          flop st;
          st.ints.(o) <- -st.ints.(x))
  | Neg, Slot (KFloat, x) ->
      flt (fun o st ->
          flop st;
          st.flts.(o) <- -.st.flts.(x))
  | Abs, Slot (KInt, x) ->
      int (fun o st ->
          flop st;
          st.ints.(o) <- abs st.ints.(x))
  | Abs, Slot (KFloat, x) ->
      flt (fun o st ->
          flop st;
          st.flts.(o) <- Float.abs st.flts.(x))
  | Sqrt, Slot (KFloat, x) ->
      if cost then
        flt (fun o st ->
            flop st;
            st.flts.(o) <- sqrt (Float.abs st.flts.(x)))
      else
        flt (fun o st ->
            flop st;
            st.flts.(o) <- sqrt st.flts.(x))
  | Exp, Slot (KFloat, x) ->
      flt (fun o st ->
          flop st;
          st.flts.(o) <- exp st.flts.(x))
  | Log, Slot (KFloat, x) ->
      if cost then
        flt (fun o st ->
            flop st;
            let v = st.flts.(x) in
            st.flts.(o) <- (if v <= 0. then 0. else log v))
      else
        flt (fun o st ->
            flop st;
            st.flts.(o) <- log st.flts.(x))
  | Not, Slot (KBool, x) ->
      typed p KBool (fun o st ->
          flop st;
          st.ints.(o) <- 1 - st.ints.(x))
  | ToF64, Slot (KInt, x) ->
      flt (fun o st ->
          flop st;
          st.flts.(o) <- float_of_int st.ints.(x))
  | ToI64, Slot (KFloat, x) ->
      int (fun o st ->
          flop st;
          st.ints.(o) <- int_of_float st.flts.(x))
  | _ -> fail "exec: ill-typed unop"

(* The first operand no binder in scope defines. *)
let first_free (os : opnd list) =
  List.find_map (function Free v -> Some v | Slot _ -> None) os

(* Typed moves into pattern slots.  No group below writes a slot it
   reads, so the order of its moves does not matter.  All sources are
   looked up before any kind is checked, as when each value was
   evaluated before any was stored. *)
let moves (ms : (opnd * rpat) list) : code =
  match first_free (List.map fst ms) with
  | Some v -> fail "exec: unbound %s" v
  | None -> (
      match
        List.find_opt
          (function Slot (k, _), p -> k <> p.rk | Free _, _ -> false)
          ms
      with
      | Some (_, p) -> fail "exec: ill-typed binding of %s" p.rv
      | None -> (
          match ms with
          | [ (Slot ((KInt | KBool), s), p) ] ->
              fun st -> st.ints.(p.rslot) <- st.ints.(s)
          | [ (Slot (KFloat, s), p) ] ->
              fun st -> st.flts.(p.rslot) <- st.flts.(s)
          | [ (Slot (KArr, s), p) ] ->
              fun st -> st.arrs.(p.rslot) <- st.arrs.(s)
          | _ ->
              let pairs ks =
                Array.of_list
                  (List.concat_map
                     (function
                       | Slot (k, s), p when List.mem k ks -> [ s; p.rslot ]
                       | _ -> [])
                     ms)
              in
              let mi = pairs [ KInt; KBool ]
              and mf = pairs [ KFloat ]
              and ma = pairs [ KArr ]
              and mm = pairs [ KMem ] in
              fun st ->
                let ints = st.ints and flts = st.flts in
                for k = 0 to (Array.length mi / 2) - 1 do
                  ints.(mi.((2 * k) + 1)) <- ints.(mi.(2 * k))
                done;
                for k = 0 to (Array.length mf / 2) - 1 do
                  flts.(mf.((2 * k) + 1)) <- flts.(mf.(2 * k))
                done;
                for k = 0 to (Array.length ma / 2) - 1 do
                  st.arrs.(ma.((2 * k) + 1)) <- st.arrs.(ma.(2 * k))
                done;
                for k = 0 to (Array.length mm / 2) - 1 do
                  st.mems.(mm.((2 * k) + 1)) <- st.mems.(mm.(2 * k))
                done))

(* ---------------------------------------------------------------- *)
(* Memory info of a pattern element                                   *)
(* ---------------------------------------------------------------- *)

(* The destination (block, ixfn) a pattern element is annotated with.
   Binding a fresh occupant into a freed block (a scratch declaration
   ahead of the kernel that fills it) reclaims it from the pool. *)
let dest_of st (p : rpat) =
  match p.rmem with
  | None -> err "exec: %s has no memory annotation" p.rv
  | Some (name, blk, ix) ->
      let b = mem_ref st name blk in
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
  let block_of = function
    | Some (Slot (KArr, a)) when st.arrs.(a) != no_arr ->
        Some st.arrs.(a).block.bid
    | Some (Slot (KMem, m)) when st.mems.(m) != no_block -> Some st.mems.(m).bid
    | _ -> None
  in
  match block_of v with
  | Some _ as b -> b
  | None -> (
      match blk with
      | Some (Slot (KMem, m)) when st.mems.(m) != no_block ->
          Some st.mems.(m).bid
      | _ -> None)

(* ---------------------------------------------------------------- *)
(* Blocks, kernels and loops                                         *)
(* ---------------------------------------------------------------- *)

let run_stms st (b : rblock) =
  let stms = b.rstms in
  for i = 0 to Array.length stms - 1 do
    stms.(i) st
  done

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
    (fun (v, slot) ->
      let a = st.arrs.(slot) in
      if not (List.mem a.block.bid res_bids) then begin
        (match st.tracer with
        | Some tr -> Trace.last_use tr ~var:v ~bid:a.block.bid
        | None -> ());
        pool_free st a.block
      end)
    dying

let launch_kernel st ~label ~declared f =
  (* nested parallelism is flattened on a GPU: only top-level mapnests
     pay a launch *)
  let top = st.kernel_depth = 0 in
  let r0 = st.hot.kreads and w0 = st.hot.kwrites in
  if top then begin
    st.counters.kernels <- st.counters.kernels + 1;
    st.hot.kscratch <- 0.;
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
  (* depth must be restored even when the body raises (a checker
     exception, an out-of-bounds access): a stuck nonzero depth would
     misclassify every later top-level allocation as kernel scratch and
     corrupt the free accounting *)
  Fun.protect ~finally:(fun () -> st.kernel_depth <- st.kernel_depth - 1) f;
  if top then begin
    (* perfect-L2: a kernel reads each block location from DRAM once *)
    Tally.iter
      (fun _ t -> st.hot.kreads <- st.hot.kreads +. Float.min t.bytes t.cap)
      st.kernel_reads_tally;
    if st.counters.live_bytes +. st.hot.kscratch > st.counters.peak_bytes then
      st.counters.peak_bytes <- st.counters.live_bytes +. st.hot.kscratch;
    st.hot.kscratch <- 0.;
    match st.tracer with
    | Some tr ->
        Trace.kernel_end tr ~read_bytes:(st.hot.kreads -. r0)
          ~write_bytes:(st.hot.kwrites -. w0)
    | None -> ()
  end

let snapshot st =
  let c = st.counters in
  ( st.hot.kwrites,
    st.hot.flops,
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
let scale_delta st snap factor =
  let w0, f0, cp0, cb0, ce0, eb0, sa0, sb0 = snap in
  let c = st.counters in
  st.hot.kwrites <- w0 +. ((st.hot.kwrites -. w0) *. factor);
  st.hot.flops <- f0 +. ((st.hot.flops -. f0) *. factor);
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
   row-major, cost-only samples the midpoint thread and scales.  The
   thread's indices go into their int slots, its results straight from
   their slots into the outputs. *)
let exec_map st (rpats : rpat list) (m : rmap) =
  let dims = List.map (fun d -> d st) m.mdims in
  let points = count dims in
  let outs = List.map (arr_of_pat st) rpats in
  let outa = Array.of_list outs in
  let idx = Array.make (Array.length m.mindices) 0 in
  let run_thread () =
    Cells.clear st.thread_writes;
    for k = 0 to Array.length idx - 1 do
      st.ints.(m.mindices.(k)) <- idx.(k)
    done;
    run_stms st m.mbody;
    m.mwrite st outa idx
  in
  launch_kernel st
    ~label:(match rpats with p :: _ -> p.rv | [] -> "map")
    ~declared:(fun () ->
      ( pat_footprints st rpats @ dest_footprints st m,
        read_footprints st m,
        points ))
    (fun () ->
      match st.mode with
      | Full ->
          if points > 0 then begin
            let dims = Array.of_list dims in
            (* the next index, row-major; false past the last one *)
            let rec next k =
              if k < 0 then false
              else begin
                idx.(k) <- idx.(k) + 1;
                idx.(k) < dims.(k)
                ||
                (idx.(k) <- 0;
                 next (k - 1))
              end
            in
            run_thread ();
            while next (Array.length idx - 1) do
              run_thread ()
            done
          end
      | Cost_only ->
          if points > 0 then begin
            List.iteri (fun k d -> idx.(k) <- d / 2) dims;
            let snap = snapshot st in
            let ks0 = st.hot.kscratch in
            run_thread ();
            scale_delta st snap (float_of_int points);
            (* every thread holds its own scratch while the kernel is
               in flight *)
            st.hot.kscratch <-
              ks0 +. ((st.hot.kscratch -. ks0) *. float_of_int points);
            if
              st.counters.live_bytes +. st.hot.kscratch
              > st.counters.peak_bytes
            then
              st.counters.peak_bytes <-
                st.counters.live_bytes +. st.hot.kscratch;
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
  List.iter2 (fun p o -> st.arrs.(p.rslot) <- o) rpats outs

(* Simpson-sampled loop: run iterations 0, n/2 and n-1 from the initial
   state and charge n * (d0 + 4*dmid + dlast)/6 - exact for
   per-iteration costs up to quadratic in the index (NW's wavefront,
   LUD's shrinking interior).  [run_iter i] runs iteration [i] from the
   initial state and leaves its results where the carried values live;
   [carried ()] gives the blocks of the carried arrays there.  The last
   sample's results stay there. *)
let simpson st n ~carried run_iter =
  let init_bids = List.map (fun (b : blockv) -> b.bid) (carried ()) in
  flush st;
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
    flush st;
    let before = Device.clone st.counters in
    let u_before = st.unfreed in
    let tbefore = tally_list () in
    run_iter i;
    flush st;
    let after = Device.clone st.counters in
    let tdelta = tally_delta tbefore in
    Device.assign st.counters before;
    reload st;
    st.unfreed <- u_before;
    tally_restore tbefore;
    (before, after, tdelta)
  in
  let b0, a0, t0 = sample 0 in
  (* Pool steady state: iteration 0 ran against the live pool (a cold
     start, so its allocations miss); its in-body frees plus the
     emulated death of its carried generation bring the pool to the
     state an arbitrary later iteration starts from, which the mid/last
     samples then see (their allocations hit).  The Simpson weights
     turn that into ~n/6 misses + ~5n/6 hits, against n misses with the
     pool disabled. *)
  (if st.kernel_depth = 0 && st.pool <> None then begin
     let u = st.unfreed in
     List.iter
       (fun (b : blockv) ->
         if not (List.mem b.bid init_bids) then pool_free st b)
       (carried ());
     (* the sampled blocks' lifetimes were already reverted with the
        counters; only the pool's free-list state is meant to advance
        here *)
     st.unfreed <- u
   end);
  let psteady = Option.map Device.Pool.snapshot st.pool in
  let bm, am, tm = sample (n / 2) in
  (match (st.pool, psteady) with
  | Some p, Some s -> Device.Pool.restore p s
  | _ -> ());
  let bl, al, tl = sample (n - 1) in
  Device.assign st.counters base;
  Device.add_simpson st.counters (b0, a0) (bm, am) (bl, al) (float_of_int n);
  reload st;
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
    (List.sort_uniq compare (List.map (fun (b, _, _) -> b) (t0 @ tm @ tl)))

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
      fcells = [||];
      icells = [||];
      bcells = [||];
      devbytes = 0.;
      freed = false;
      tally = no_tally;
      tally_gen = 0;
      wgen = 0;
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
        | Some cap -> device_fault st (Core.Fault.Pool_cap { bytes; cap })
        | None -> ())
    | None -> ());
    match st.pool with
    | Some p -> (
        match Device.Pool.alloc p bytes with
        | `Hit served ->
            st.counters.pool_hits <- st.counters.pool_hits + 1;
            b.devbytes <- served
        | `Miss -> st.counters.pool_misses <- st.counters.pool_misses + 1)
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
    st.hot.kscratch <- st.hot.kscratch +. bytes;
    if st.counters.live_bytes +. st.hot.kscratch > st.counters.peak_bytes
    then st.counters.peak_bytes <- st.counters.live_bytes +. st.hot.kscratch;
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

(* The loop whose body is being staged.  Its int slots below [mark] are
   bound outside the body, so no iteration changes them; [pre] lists the
   sums of products over such slots, flattened, that its pre-header
   computes once per execution of the loop, each with the slot it
   stores into. *)
type preheader = { mark : int; mutable pre : (int array * int) list }

type resolver = {
  rmode : mode;
  mutable nints : int;
  mutable nflts : int;
  mutable narrs : int;
  mutable nmems : int;
  mutable iconsts : (int * int) list; (* preloaded int slots *)
  mutable fconsts : (int * float) list; (* preloaded float slots *)
  mutable mentioned : string list option;
      (* operand names met in the innermost enclosing mapnest body;
         None outside every kernel *)
  mutable loop : preheader option;
      (* the innermost enclosing loop; None outside every loop *)
}

let kind_of = function
  | TScalar I64 -> KInt
  | TScalar F64 -> KFloat
  | TScalar Bool -> KBool
  | TArr _ -> KArr
  | TMem -> KMem

let fresh r k =
  match k with
  | KInt | KBool ->
      r.nints <- r.nints + 1;
      r.nints - 1
  | KFloat ->
      r.nflts <- r.nflts + 1;
      r.nflts - 1
  | KArr ->
      r.narrs <- r.narrs + 1;
      r.narrs - 1
  | KMem ->
      r.nmems <- r.nmems + 1;
      r.nmems - 1

let bind r scope v k =
  let s = fresh r k in
  (s, Scope.add v (Slot (k, s)) scope)

(* Pattern elements with slots of their own and no annotation: loop
   parameters, mapnest indices, loop temporaries. *)
let plain r v k =
  { rv = v; rk = k; rslot = fresh r k; rarr = None; rmem = None }

let bind_all r scope vks =
  let ps = List.map (fun (v, k) -> plain r v k) vks in
  ( ps,
    List.fold_left
      (fun scope p -> Scope.add p.rv (Slot (p.rk, p.rslot)) scope)
      scope ps )

let use scope v = match Scope.find_opt v scope with Some o -> o | None -> Free v

(* A value operand: also what a kernel's declared reads are made of. *)
let operand r scope v =
  Option.iter (fun l -> r.mentioned <- Some (v :: l)) r.mentioned;
  use scope v

let atom r scope = function
  | Var v -> operand r scope v
  | Int i ->
      let s = fresh r KInt in
      r.iconsts <- (s, i) :: r.iconsts;
      Slot (KInt, s)
  | Float f ->
      let s = fresh r KFloat in
      r.fconsts <- (s, f) :: r.fconsts;
      Slot (KFloat, s)
  | Bool b ->
      let s = fresh r KBool in
      r.iconsts <- (s, Bool.to_int b) :: r.iconsts;
      Slot (KBool, s)

(* Monomials, each a coefficient and its factors' int slots, flattened
   for [sum_of_products]. *)
let flatten ms =
  Array.concat
    (List.map (fun (c, xs) -> Array.append [| c; Array.length xs |] xs) ms)

(* Monomials compiled to a sum of products, with closures of their own
   for the shapes most indices take: a constant, a variable, a variable
   plus a constant, and a loop-invariant slot [h] plus a variable or a
   multiple of a product of two. *)
let sum ms : ipoly =
  match ms with
  | [] -> fun _ -> 0
  | [ (c, [||]) ] -> fun _ -> c
  | [ (1, [| x |]) ] -> fun st -> st.ints.(x)
  | [ (1, [| x |]); (c, [||]) ] -> fun st -> st.ints.(x) + c
  | [ (1, [| h |]); (1, [| x |]) ] -> fun st -> st.ints.(h) + st.ints.(x)
  | [ (1, [| h |]); (c, [| x; y |]) ] ->
      fun st ->
        let i = st.ints in
        i.(h) + (c * i.(x) * i.(y))
  | ms ->
      let ms = flatten ms in
      fun st -> sum_of_products ms st

(* Whether the slots [xs.(0..k)] are all below [mark]. *)
let rec below mark (xs : int array) k =
  k < 0 || (xs.(k) < mark && below mark xs (k - 1))

(* Split monomials for the innermost loop being staged: those whose
   factors are all bound outside its body cannot change while it runs.
   When they are more than one bare slot read, the loop's pre-header
   sums them into a slot of its own, one per distinct sum, and the
   polynomial reads that slot instead.  The invariant slot leads, and
   so does a bare invariant slot before one variant monomial, for
   [sum]'s shapes. *)
let hoist r ms =
  match (r.loop, ms) with
  | None, _ | _, ([] | [ (_, [||]) ] | [ (1, [| _ |]) ]) -> ms
  | Some l, _ -> (
      match
        List.partition
          (fun (_, xs) -> below l.mark xs (Array.length xs - 1))
          ms
      with
      | ([] | [ (_, [||]) ]), _ -> ms
      | [ ((1, [| _ |]) as h) ], [ v ] -> [ h; v ]
      | [ (1, [| _ |]) ], _ -> ms
      | inv, var ->
          let key = flatten inv in
          let h =
            match List.assoc_opt key l.pre with
            | Some h -> h
            | None ->
                let h = fresh r KInt in
                l.pre <- (key, h) :: l.pre;
                h
          in
          (1, [| h |]) :: var)

(* An index polynomial compiled to a sum of products over int slots.  A
   factor that is no int slot raises when the polynomial is evaluated,
   as the first such factor would; such a polynomial is not split. *)
let poly r scope (p : P.t) : ipoly =
  let bad = ref None in
  let factors (x, e) =
    let s =
      match use scope x with
      | Slot (KInt, s) -> s
      | o ->
          if !bad = None then
            bad :=
              Some
                (match o with
                | Free v -> "exec: unbound " ^ v
                | Slot _ ->
                    "exec: " ^ x ^ " is not an integer (in index expression)");
          0
    in
    List.init e (fun _ -> s)
  in
  let ms =
    List.map
      (fun (m : P.mono) ->
        (m.coeff, Array.of_list (List.concat_map factors m.pows)))
      (P.monos p)
  in
  match !bad with
  | Some msg -> fun _ -> raise (Exec_error msg)
  | None -> sum (hoist r ms)

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
        ( m.block,
          use scope m.block,
          List.map (lmad r scope) (Ixfn.chain m.ixfn) ))
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
                | Some (Slot (KMem, slot)) -> (pe.pv, slot) :: acc
                | _ -> acc)
            | None -> acc)
          acc s.pat
      in
      match s.exp with
      | EMap { body; _ } | ELoop { body; _ } -> body_dests scope body acc
      | EIf { tb; fb; _ } -> body_dests scope tb (body_dests scope fb acc)
      | _ -> acc)
    acc blk.stms

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

(* An array operand: the code [k a] on its slot, or the code that raises
   when the operand is unbound or no array. *)
let with_arr v o (k : int -> code) : code =
  match o with
  | Slot (KArr, a) -> k a
  | Free n -> fail "exec: unbound %s" n
  | Slot _ -> fail "exec: %s is not an array" v

(* An array operand read where it is needed. *)
let arr_get v = function
  | Slot (KArr, a) -> fun st -> st.arrs.(a)
  | Free n -> fun _ -> err "exec: unbound %s" n
  | Slot _ -> fun _ -> err "exec: %s is not an array" v

(* One per-thread result of a mapnest, written into its output at the
   thread's indices. *)
let thread_writer (res : opnd) : state -> arrv -> int array -> unit =
  match res with
  | Slot (KArr, s) ->
      fun st o idx ->
        let ra = st.arrs.(s) in
        let slot =
          cslice_triplet
            (List.map (fun i -> DFix i) (Array.to_list idx)
            @ List.map (fun d -> DRange (0, d, 1)) ra.shape)
            o.ix
        in
        copy_logical st ra.elt ra.shape ra.block ra.ix o.block slot
  | Slot (((KFloat | KInt | KBool) as k), s) ->
      fun st o idx -> write_slot st o.block o.elt (thread_offset o.ix idx) k s
  | Slot (KMem, _) -> fun _ _ _ -> err "exec: mapnest result mismatch"
  | Free v -> fun _ _ _ -> err "exec: unbound %s" v

(* [s]'s expression compiled to store into its pattern [rpats].  A
   single-valued expression stores into its pattern's one slot, and
   under any other arity raises when it runs. *)
let rec exp r scope (rpats : rpat list) (s : stm) : code =
  let atom = atom r scope and operand = operand r scope in
  let poly = poly r scope in
  let single (k : rpat -> code) : code =
    match rpats with [ p ] -> k p | _ -> fail "exec: arity mismatch"
  in
  match s.exp with
  | EAtom a ->
      let a = atom a in
      single (fun p -> moves [ (a, p) ])
  | EBin (op, a, b) ->
      let a = atom a and b = atom b in
      single (binop r.rmode op a b)
  | ECmp (op, a, b) ->
      let a = atom a and b = atom b in
      single (cmpop op a b)
  | EUn (op, a) ->
      let a = atom a in
      single (unop r.rmode op a)
  | EIdx p ->
      let p = poly p in
      single (fun p' -> typed p' KInt (fun o st -> st.ints.(o) <- p st))
  | EIndex (v, idxs) ->
      let o = operand v and offset = element_offset (List.map poly idxs) in
      single (fun p ->
          with_arr v o (fun a ->
              match p.rk with
              | (KFloat | KInt | KBool) as k ->
                  let out = p.rslot in
                  fun st ->
                    let a = st.arrs.(a) in
                    read_slot st a.block a.elt (offset st a) k out
              | KArr | KMem -> fail "exec: ill-typed binding of %s" p.rv))
  | EUpdate { dst; slc = STriplet sds; src = SrcScalar a }
    when List.for_all (function SFix _ -> true | SRange _ -> false) sds ->
      (* an update of one element: the result is the updated array's
         own value *)
      let o = operand dst
      and offset =
        element_offset
          (List.filter_map (function SFix i -> Some (poly i) | _ -> None) sds)
      and a = atom a in
      single (fun p ->
          with_arr dst o (fun d ->
              typed p KArr (fun out ->
                  match a with
                  | Slot (k, x) ->
                      fun st ->
                        let v = st.arrs.(d) in
                        write_slot st v.block v.elt (offset st v) k x;
                        st.arrs.(out) <- v
                  | Free n ->
                      fun st ->
                        let v = st.arrs.(d) in
                        ignore (offset st v);
                        err "exec: unbound %s" n)))
  | ESlice (v, _) | ETranspose (v, _) | EReshape (v, _) | EReverse (v, _) ->
      (* O(1): the result's annotation holds the transformed ixfn *)
      let get = arr_get v (operand v) in
      single (fun p st ->
          let a = get st in
          let _, ix = dest_of st p in
          st.arrs.(p.rslot) <-
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
          launch_kernel st ~label:p.rv
            ~declared:(fun () -> (pat_footprints st rpats, [], n))
            (fun () ->
              match st.mode with
              | Full ->
                  for i = 0 to n - 1 do
                    write_int st o.block o.elt (flat_offset o.ix i) i
                  done
              | Cost_only ->
                  st.hot.kwrites <-
                    st.hot.kwrites +. (float_of_int n *. elem_bytes));
          st.arrs.(p.rslot) <- o)
  | EReplicate (_, a) -> (
      match atom a with
      | Free v ->
          single (fun p st ->
              ignore (arr_of_pat st p);
              err "exec: unbound %s" v)
      | Slot (k, x) ->
          single (fun p st ->
              let o = arr_of_pat st p in
              launch_kernel st ~label:p.rv
                ~declared:(fun () ->
                  (pat_footprints st rpats, [], count o.shape))
                (fun () ->
                  let n = count o.shape in
                  match st.mode with
                  | Full ->
                      List.iter
                        (fun idx ->
                          write_slot st o.block o.elt (capply o.ix idx) k x)
                        (indices o.shape)
                  | Cost_only ->
                      st.hot.kwrites <-
                        st.hot.kwrites +. (float_of_int n *. elem_bytes));
              st.arrs.(p.rslot) <- o))
  | EScratch _ ->
      (* no writes: just bind the destination *)
      single (fun p st -> st.arrs.(p.rslot) <- arr_of_pat st p)
  | ECopy v ->
      let get = arr_get v (operand v) in
      single (fun p ->
          typed p KArr (fun out st ->
              let a = get st in
              let db, dix = dest_of st p in
              copy_logical st a.elt a.shape a.block a.ix db dix;
              st.arrs.(out) <- { a with block = db; ix = dix }))
  | EConcat vs ->
      let gets = List.map (fun v -> arr_get v (operand v)) vs in
      single (fun p st ->
          let o = arr_of_pat st p in
          let row = ref 0 in
          List.iter
            (fun get ->
              let a = get st in
              let d0 = List.hd a.shape in
              let dix =
                cslice_triplet
                  (DRange (!row, d0, 1)
                  :: List.map (fun d -> DRange (0, d, 1)) (List.tl a.shape))
                  o.ix
              in
              copy_logical st a.elt a.shape a.block a.ix o.block dix;
              row := !row + d0)
            gets;
          st.arrs.(p.rslot) <- o)
  | EUpdate { dst; slc; src } ->
      let write =
        match src with
        | SrcArr v ->
            let get = arr_get v (operand v) in
            fun st (d : arrv) tix ->
              let sa = get st in
              copy_logical st sa.elt sa.shape sa.block sa.ix d.block tix
        | SrcScalar a -> (
            match atom a with
            | Slot (k, x) ->
                fun st d tix -> write_slot st d.block d.elt (capply tix []) k x
            | Free v -> fun _ _ _ -> err "exec: unbound %s" v)
      in
      let o = operand dst and slc = slice r scope slc in
      single (fun p ->
          with_arr dst o (fun d ->
              typed p KArr (fun out st ->
                  let v = st.arrs.(d) in
                  write st v (cslice st slc v.ix);
                  st.arrs.(out) <- v)))
  | EMap { nest; body } ->
      let mdims = List.map (fun (_, n) -> poly n) nest in
      let indices, inner =
        bind_all r scope (List.map (fun (i, _) -> (i, KInt)) nest)
      in
      let outer = r.mentioned in
      r.mentioned <- Some [];
      let mbody = block r inner body in
      let mentioned = Option.value r.mentioned ~default:[] in
      r.mentioned <- Option.map (List.rev_append mentioned) outer;
      let mwrite =
        match first_free mbody.rres with
        | Some v -> fun _ _ _ -> err "exec: unbound %s" v
        | None ->
            if List.compare_lengths mbody.rres rpats <> 0 then fun _ _ _ ->
              err "exec: arity mismatch"
            else
              let ws = Array.of_list (List.map thread_writer mbody.rres) in
              fun st outs idx ->
                for k = 0 to Array.length ws - 1 do
                  ws.(k) st outs.(k) idx
                done
      in
      let m =
        {
          mdims;
          mindices = Array.of_list (List.map (fun p -> p.rslot) indices);
          mbody;
          mwrite;
          mdests = body_dests scope body [];
          mreads =
            List.filter_map
              (fun v ->
                match Scope.find_opt v scope with
                | Some (Slot (KArr, a)) -> Some (v, a)
                | _ -> None)
              (List.sort_uniq compare mentioned);
        }
      in
      fun st -> exec_map st rpats m
  | EReduce { op; ne; arr } ->
      let ne = atom ne and o = operand arr in
      let label = match rpats with p :: _ -> p.rv | [] -> "reduce" in
      single (fun p ->
          with_arr arr o (fun a ->
              (* the accumulator is [p]'s own slot; each element is read
                 into a temporary of its kind *)
              let k = match ne with Slot (k, _) -> k | Free _ -> p.rk in
              let x = fresh r k in
              let step = binop r.rmode op (Slot (k, p.rslot)) (Slot (k, x)) p
              and init = moves [ (ne, p) ] in
              fun st ->
                let a = st.arrs.(a) in
                let n = count a.shape in
                launch_kernel st ~label
                  ~declared:(fun () -> ([], [ arr_footprint arr a ], n))
                  (fun () ->
                    match st.mode with
                    | Full ->
                        init st;
                        for i = 0 to n - 1 do
                          read_slot st a.block a.elt (flat_offset a.ix i) k x;
                          step st
                        done
                    | Cost_only ->
                        tally_reads st a.block (float_of_int n *. elem_bytes);
                        st.hot.flops <- st.hot.flops +. float_of_int n;
                        init st)))
  | EArgmin arr -> (
      let o = operand arr in
      let label = match rpats with p :: _ -> p.rv | [] -> "argmin" in
      match rpats with
      | [ pv; pi ] ->
          with_arr arr o (fun a ->
              typed pv KFloat (fun ov ->
                  typed pi KInt (fun oi st ->
                      let a = st.arrs.(a) in
                      let n = count a.shape in
                      launch_kernel st ~label
                        ~declared:(fun () -> ([], [ arr_footprint arr a ], n))
                        (fun () ->
                          match st.mode with
                          | Full ->
                              let best = ref infinity and besti = ref 0 in
                              for i = 0 to n - 1 do
                                let off = flat_offset a.ix i in
                                note_read st a.block off;
                                match a.elt with
                                | F64 ->
                                    let x = (fcells a.block).(off) in
                                    if x < !best then begin
                                      best := x;
                                      besti := i
                                    end
                                | _ -> err "exec: argmin over non-float"
                              done;
                              st.flts.(ov) <- !best;
                              st.ints.(oi) <- !besti
                          | Cost_only ->
                              tally_reads st a.block
                                (float_of_int n *. elem_bytes);
                              st.hot.flops <- st.hot.flops +. float_of_int n;
                              st.flts.(ov) <- 0.5;
                              st.ints.(oi) <- 0))))
      | _ -> fail "exec: arity mismatch")
  | ELoop { params; var; bound; body } ->
      let inits = List.map (fun (_, init) -> atom init) params in
      let lbound = poly bound in
      (* every int slot taken so far is bound outside the body *)
      let outer = r.loop and l = { mark = r.nints; pre = [] } in
      r.loop <- Some l;
      let lparams, inner =
        bind_all r scope
          (List.map (fun ((pe : pat_elem), _) -> (pe.pv, kind_of pe.pt)) params)
      in
      let lcounter, inner = bind r inner var KInt in
      let lbody = block r inner body in
      r.loop <- outer;
      let pre =
        Array.of_list
          (List.rev_map
             (fun (ms, h) st -> st.ints.(h) <- sum_of_products ms st)
             l.pre)
      in
      if
        List.compare_lengths lbody.rres lparams <> 0
        || List.compare_lengths rpats lparams <> 0
      then fail "exec: arity mismatch"
      else
        (* Each carried value lives in a temporary between iterations:
           the initial values go there, each iteration starts from there
           and leaves its results there. *)
        let temps = List.map (fun p -> plain r p.rv p.rk) lparams in
        let slot p = Slot (p.rk, p.rslot) in
        let init = moves (List.combine inits temps)
        and enter = moves (List.map2 (fun t p -> (slot t, p)) temps lparams)
        and carry = moves (List.combine lbody.rres temps)
        and leave = moves (List.map2 (fun t p -> (slot t, p)) temps rpats) in
        (* the carried arrays, with a slot each for the value before the
           carry: a top-level iteration retires those the carry drops *)
        let carried = List.filter (fun t -> t.rk = KArr) temps in
        let atemps = Array.of_list (List.map (fun t -> t.rslot) carried)
        and anames = Array.of_list (List.map (fun t -> t.rv) carried) in
        let prevs = Array.map (fun _ -> fresh r KArr) atemps in
        let retire st =
          Array.iteri
            (fun k prev ->
              let a = st.arrs.(prev) in
              if
                not
                  (Array.exists
                     (fun t -> st.arrs.(t).block.bid = a.block.bid)
                     atemps)
              then begin
                (match st.tracer with
                | Some tr -> Trace.last_use tr ~var:anames.(k) ~bid:a.block.bid
                | None -> ());
                pool_free st a.block
              end)
            prevs
        in
        (* cost-only runs sample a long loop unless it carries an integer *)
        let sampled =
          r.rmode = Cost_only
          && not (List.exists (fun p -> p.rk = KInt) lparams)
        in
        fun st ->
          let n = lbound st in
          (* the pre-header, once per execution of the loop *)
          for k = 0 to Array.length pre - 1 do
            pre.(k) st
          done;
          init st;
          if sampled && n >= 24 then
            (* each sample starts from the initial values, which no
               iteration can change *)
            simpson st n
              ~carried:(fun () ->
                Array.fold_right (fun t l -> st.arrs.(t).block :: l) atemps [])
              (fun i ->
                init st;
                enter st;
                st.ints.(lcounter) <- i;
                run_stms st lbody;
                carry st)
          else
            for i = 0 to n - 1 do
              enter st;
              st.ints.(lcounter) <- i;
              run_stms st lbody;
              if st.kernel_depth = 0 && Array.length atemps > 0 then begin
                Array.iteri
                  (fun k t -> st.arrs.(prevs.(k)) <- st.arrs.(t))
                  atemps;
                carry st;
                retire st
              end
              else carry st
            done;
          leave st
  | EIf { cond; tb; fb } -> (
      let cond = atom cond in
      let tb = block r scope tb and fb = block r scope fb in
      (* an arm runs its statements, then moves its results into the
         pattern *)
      let arm (b : rblock) : code =
        if List.compare_lengths b.rres rpats <> 0 then
          let check =
            match first_free b.rres with
            | Some v -> fail "exec: unbound %s" v
            | None -> fail "exec: arity mismatch"
          in
          fun st ->
            run_stms st b;
            check st
        else
          let mv = moves (List.combine b.rres rpats) in
          fun st ->
            run_stms st b;
            mv st
      in
      let t = arm tb and f = arm fb in
      match cond with
      | Slot (KBool, c) -> fun st -> if st.ints.(c) <> 0 then t st else f st
      | Free v -> fail "exec: unbound %s" v
      | Slot _ -> fail "exec: non-boolean condition")
  | EAlloc size ->
      let size = poly size
      and arena =
        match s.pat with [ pe ] -> Core.Pack.is_arena pe.pv | _ -> false
      in
      single (fun p ->
          typed p KMem (fun out st -> st.mems.(out) <- alloc st size ~arena))

(* A statement: its pattern's slots, its expression compiled to store
   into them, and the last-use markers it carries; the scope it returns
   binds the pattern's names. *)
and stm r scope res_vars res_blocks (s : stm) =
  let rpats =
    List.map
      (fun (pe : pat_elem) ->
        let rarr, rmem = dest r scope pe in
        let k = kind_of pe.pt in
        { rv = pe.pv; rk = k; rslot = fresh r k; rarr; rmem })
      s.pat
  in
  let code = exp r scope rpats s in
  let scope =
    List.fold_left
      (fun scope p -> Scope.add p.rv (Slot (p.rk, p.rslot)) scope)
      scope rpats
  in
  (* only arrays die: their blocks go back to the pool *)
  let dying =
    List.filter_map
      (fun v ->
        match Scope.find_opt v scope with
        | Some (Slot (KArr, a)) -> Some (v, a)
        | _ -> None)
      s.last_uses
  in
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
      nints = 0;
      nflts = 0;
      narrs = 0;
      nmems = 0;
      iconsts = [];
      fconsts = [];
      mentioned = None;
      loop = None;
    }
  in
  let scope, params =
    List.fold_left
      (fun (scope, acc) (pe : pat_elem) ->
        let blk, scope =
          match (pe.pt, pe.pmem) with
          | TArr _, Some m ->
              let s, scope = bind r scope m.block KMem in
              (Some (s, m.block), scope)
          | _ -> (None, scope)
        in
        let s, scope = bind r scope pe.pv (kind_of pe.pt) in
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
let bind_param st ((pe : pat_elem), slot, blk) (v : Value.t) =
  match (pe.pt, v) with
  | TScalar I64, Value.VInt i -> st.ints.(slot) <- i
  | TScalar F64, Value.VFloat f -> st.flts.(slot) <- f
  | TScalar Bool, Value.VBool b -> st.ints.(slot) <- Bool.to_int b
  | TArr (elt, _), Value.VArr a ->
      let blk_slot, bname =
        match blk with
        | Some b -> b
        | None -> err "exec: %s has no memory annotation" pe.pv
      in
      st.last_bid <- st.last_bid + 1;
      let n = Value.count a.Value.shape in
      let blk =
        {
          bid = st.last_bid;
          bname;
          bsize = n;
          fcells = [||];
          icells = [||];
          bcells = [||];
          devbytes = 0.;
          freed = false;
          tally = no_tally;
          tally_gen = 0;
          wgen = 0;
        }
      in
      (match (st.mode, elt, a.Value.data) with
      | Full, F64, Value.DF s -> Array.blit s 0 (fcells blk) 0 n
      | Full, I64, Value.DI s -> Array.blit s 0 (icells blk) 0 n
      | Full, Bool, Value.DB s -> Array.blit s 0 (bcells blk) 0 n
      | Full, _, _ -> err "exec: param payload mismatch"
      | Cost_only, _, _ -> ());
      (match st.tracer with
      | Some tr ->
          Trace.alloc tr ~bid:blk.bid ~name:bname ~elems:n ~in_kernel:false
      | None -> ());
      st.mems.(blk_slot) <- blk;
      st.arrs.(slot) <-
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

(* Read a result back out of the frame and device memory. *)
let materialize st (o : opnd) : Value.t =
  match o with
  | Free v -> err "exec: unbound %s" v
  | Slot (KInt, s) -> Value.VInt st.ints.(s)
  | Slot (KFloat, s) -> Value.VFloat st.flts.(s)
  | Slot (KBool, s) -> Value.VBool (st.ints.(s) <> 0)
  | Slot (KMem, _) -> Value.VMem 0
  | Slot (KArr, s) -> (
      let a = st.arrs.(s) in
      match st.mode with
      | Cost_only -> Value.VArr (Value.shell a.elt a.shape)
      | Full ->
          let out = Value.zeros a.elt a.shape in
          List.iteri
            (fun i idx ->
              let off = capply a.ix idx in
              note_read st a.block off;
              let cell =
                match a.elt with
                | F64 -> Value.VFloat (fcells a.block).(off)
                | I64 -> Value.VInt (icells a.block).(off)
                | Bool -> Value.VBool (bcells a.block).(off)
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
    ?(variant = "program") ?mutation ?(oom_at = 0) (p : prog)
    (args : Value.t list) : report =
  if trace && mode = Cost_only then
    invalid_arg "Exec.run: a traced run must be a Full run";
  let tracer =
    if trace then Some (Trace.create ~program:p.name ~variant ()) else None
  in
  if List.length args <> List.length p.params then
    err "exec: %s expects %d arguments" p.name (List.length p.params);
  let params, body, r = resolve mode p in
  let st =
    {
      mode;
      counters = Device.fresh_counters ();
      hot = { flops = 0.; kwrites = 0.; kreads = 0.; kscratch = 0. };
      ints = Array.make r.nints 0;
      flts = Array.make r.nflts 0.;
      arrs = Array.make r.narrs no_arr;
      mems = Array.make r.nmems no_block;
      last_bid = 0;
      tracer;
      mutation;
      pool =
        (if pool then Some (Device.Pool.create ?cap:pool_cap ())
         else None);
      oom_at;
      alloc_seq = 0;
      exec_faults = [];
      unfreed = 0;
      kernel_depth = 0;
      thread_writes = Cells.create ();
      kernel_reads_tally = Tally.create 64;
      tally_gen = 1;
    }
  in
  List.iter (fun (s, v) -> st.ints.(s) <- v) r.iconsts;
  List.iter (fun (s, v) -> st.flts.(s) <- v) r.fconsts;
  List.iter2 (bind_param st) params args;
  (* Teardown: without a pool, every device allocation is eventually
     matched by a synchronizing [cudaFree] - blocks that died mid-run
     were already counted by [pool_free]; top up with the frees of the
     [unfreed] blocks still live when the program hands back its
     results (an outstanding-block count, not [allocs - frees]: after
     a mid-run pool degradation the flushed blocks already sit in
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
  Fun.protect ~finally:teardown (fun () ->
      run_stms st body;
      List.iter
        (function Free v -> err "exec: unbound %s" v | Slot _ -> ())
        body.rres);
  (* reading back results is not part of the measured cost (or trace) *)
  let saved = st.hot.kreads in
  Option.iter Trace.mute st.tracer;
  let results = List.map (materialize st) body.rres in
  st.hot.kreads <- saved;
  flush st;
  {
    results;
    counters = st.counters;
    trace = tracer;
    pool = Option.map Device.Pool.stats st.pool;
    faults = List.rev st.exec_faults;
  }

(* Simulated time on a device for a completed run. *)
let time device (r : report) = Device.time device r.counters

(* Execution traces of the memory-aware GPU executor.

   A trace is the dynamic counterpart of the static memory annotations:
   every executed operation that touches memory appends a structured
   event - allocations, kernel launches with their *declared* (static,
   concretized) and *actual* (observed) footprints, copies with their
   elision decision, and last-use markers.  The [Memtrace] checker
   replays a trace against the declared footprints; this module only
   collects and renders.

   Events are device-level: offsets are flat element offsets into a
   block, and declared regions are concrete LMADs ({!Lmads.Lmad.concrete})
   obtained by evaluating the static annotations under the launch-time
   environment.  A declared region of [None] means "the whole block"
   (the static annotation mentioned per-thread variables that have no
   single launch-time value, so the enumerable region degrades to the
   block bound). *)

module Lmad = Lmads.Lmad

type clmad = Lmad.concrete

type footprint = {
  fvar : string; (* array variable the region belongs to *)
  fbid : int; (* block id *)
  fregion : clmad list option; (* None: anywhere in the block *)
}

type kernel = {
  kid : int; (* launch sequence number *)
  klabel : string; (* binding variable of the launching statement *)
  kthreads : int;
  declared_writes : footprint list;
  declared_reads : footprint list;
  fresh : int list; (* blocks allocated inside this kernel (thread-private) *)
  writes : (int * int list) list; (* bid -> distinct offsets, sorted *)
  reads : (int * int list) list;
  read_bytes : float; (* modeled DRAM traffic of this launch *)
  write_bytes : float;
}

type copy = {
  csrc : int;
  cdst : int;
  cshape : int list; (* logical shape copied *)
  csix : clmad list; (* concrete index function chains, head first *)
  cdix : clmad list;
  cbytes : float;
  celided : bool;
  cin_kernel : bool;
}

type event =
  | Alloc of { bid : int; name : string; elems : int; in_kernel : bool }
  | Kernel of kernel
  | Copy of copy
  | Last_use of { var : string; bid : int }

type t = {
  program : string;
  variant : string; (* provenance: which pipeline stage produced the code *)
  mutable events_rev : event list;
  mutable next_kid : int;
  mutable muted : bool; (* result readback is not part of the execution *)
  (* current top-level kernel under construction *)
  mutable cur : building option;
}

and building = {
  b_label : string;
  b_threads : int;
  b_dw : footprint list;
  b_dr : footprint list;
  mutable b_fresh : int list;
  b_wr : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  b_rd : (int, (int, unit) Hashtbl.t) Hashtbl.t;
}

let create ~program ~variant () =
  {
    program;
    variant;
    events_rev = [];
    next_kid = 0;
    muted = false;
    cur = None;
  }

let program t = t.program
let variant t = t.variant
let events t = List.rev t.events_rev
let emit t e = if not t.muted then t.events_rev <- e :: t.events_rev
let mute t = t.muted <- true

let alloc t ~bid ~name ~elems ~in_kernel =
  emit t (Alloc { bid; name; elems; in_kernel });
  if in_kernel then
    match t.cur with Some b -> b.b_fresh <- bid :: b.b_fresh | None -> ()

let last_use t ~var ~bid = emit t (Last_use { var; bid })

let kernel_begin t ~label ~threads ~declared_writes ~declared_reads =
  if not t.muted then
    t.cur <-
      Some
        {
          b_label = label;
          b_threads = threads;
          b_dw = declared_writes;
          b_dr = declared_reads;
          b_fresh = [];
          b_wr = Hashtbl.create 16;
          b_rd = Hashtbl.create 16;
        }

let touch tbl bid off =
  let s =
    match Hashtbl.find_opt tbl bid with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 64 in
        Hashtbl.add tbl bid s;
        s
  in
  Hashtbl.replace s off ()

let kernel_read t ~bid ~off =
  match t.cur with Some b when not t.muted -> touch b.b_rd bid off | _ -> ()

let kernel_write t ~bid ~off =
  match t.cur with Some b when not t.muted -> touch b.b_wr bid off | _ -> ()

let offsets_of tbl =
  Hashtbl.fold
    (fun bid s acc ->
      let offs = Hashtbl.fold (fun o () l -> o :: l) s [] in
      (bid, List.sort compare offs) :: acc)
    tbl []
  |> List.sort compare

let kernel_end t ~read_bytes ~write_bytes =
  match t.cur with
  | None -> ()
  | Some b ->
      let k =
        {
          kid = t.next_kid;
          klabel = b.b_label;
          kthreads = b.b_threads;
          declared_writes = b.b_dw;
          declared_reads = b.b_dr;
          fresh = List.rev b.b_fresh;
          writes = offsets_of b.b_wr;
          reads = offsets_of b.b_rd;
          read_bytes;
          write_bytes;
        }
      in
      t.next_kid <- t.next_kid + 1;
      t.cur <- None;
      emit t (Kernel k)

let copy t ~src ~dst ~shape ~six ~dix ~bytes ~elided ~in_kernel =
  emit t
    (Copy
       {
         csrc = src;
         cdst = dst;
         cshape = shape;
         csix = six;
         cdix = dix;
         cbytes = bytes;
         celided = elided;
         cin_kernel = in_kernel;
       })

(* ---------------------------------------------------------------- *)
(* Replay helpers                                                    *)
(* ---------------------------------------------------------------- *)

(* Apply a concrete index-function chain to a logical index: the
   executor's addressing, replicated so the checker can re-enumerate a
   copy's image without executing anything. *)
let apply (ix : clmad list) (idxs : int list) : int =
  match ix with
  | [] -> invalid_arg "Trace.apply: empty index function"
  | first :: rest ->
      let app (l : clmad) idxs =
        List.fold_left2
          (fun acc i (_, s) -> acc + (i * s))
          l.Lmad.coff idxs l.Lmad.cdims
      in
      let o = ref (app first idxs) in
      List.iter
        (fun (l : clmad) ->
          let shp = List.map fst l.Lmad.cdims in
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

let image (ix : clmad list) (shape : int list) : int list =
  List.sort_uniq compare
    (List.map (apply ix) (Ir.Value.indices shape))

(* ---------------------------------------------------------------- *)
(* Derived summaries                                                 *)
(* ---------------------------------------------------------------- *)

let kernels t =
  List.filter_map (function Kernel k -> Some k | _ -> None) (events t)

let copies t =
  List.filter_map (function Copy c -> Some c | _ -> None) (events t)

(* Per-kernel-label traffic histogram: (label, launches, read bytes,
   write bytes), ordered by total traffic. *)
let histogram t : (string * int * float * float) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let base = Ir.Names.base k.klabel in
      let n, r, w =
        Option.value (Hashtbl.find_opt tbl base) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl base
        (n + 1, r +. k.read_bytes, w +. k.write_bytes))
    (kernels t);
  Hashtbl.fold (fun l (n, r, w) acc -> (l, n, r, w) :: acc) tbl []
  |> List.sort (fun (_, _, r1, w1) (_, _, r2, w2) ->
         compare (r2 +. w2) (r1 +. w1))

type traffic = {
  t_kernel_reads : float;
  t_kernel_writes : float;
  t_copy_bytes : float;
  t_elided_bytes : float;
}

let traffic t =
  List.fold_left
    (fun acc e ->
      match e with
      | Kernel k ->
          {
            acc with
            t_kernel_reads = acc.t_kernel_reads +. k.read_bytes;
            t_kernel_writes = acc.t_kernel_writes +. k.write_bytes;
          }
      | Copy c when c.celided ->
          { acc with t_elided_bytes = acc.t_elided_bytes +. c.cbytes }
      | Copy c when not c.cin_kernel ->
          { acc with t_copy_bytes = acc.t_copy_bytes +. c.cbytes }
      | _ -> acc)
    {
      t_kernel_reads = 0.;
      t_kernel_writes = 0.;
      t_copy_bytes = 0.;
      t_elided_bytes = 0.;
    }
    (events t)

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)
(* ---------------------------------------------------------------- *)

let pp_region ppf = function
  | None -> Fmt.string ppf "whole-block"
  | Some ls -> Fmt.(list ~sep:(any " U ") Lmad.pp_concrete) ppf ls

let pp_footprint ppf f =
  Fmt.pf ppf "%s@@blk%d:%a" f.fvar f.fbid pp_region f.fregion

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

let json_clmad (c : clmad) =
  Json.Obj
    [
      ("off", Json.int c.Lmad.coff);
      ( "dims",
        Json.Arr
          (List.map
             (fun (n, s) -> Json.Arr [ Json.int n; Json.int s ])
             c.Lmad.cdims) );
    ]

let json_region ls = Json.Arr (List.map json_clmad ls)
let json_ints l = Json.Arr (List.map Json.int l)

let json_footprint f =
  Json.Obj
    [
      ("var", Json.Str f.fvar);
      ("block", Json.int f.fbid);
      ("region", Option.fold ~none:Json.Null ~some:json_region f.fregion);
    ]

let json_offsets l =
  Json.Arr
    (List.map
       (fun (bid, offs) ->
         Json.Obj [ ("block", Json.int bid); ("offsets", json_ints offs) ])
       l)

let json_event = function
  | Alloc { bid; name; elems; in_kernel } ->
      Json.Obj
        [
          ("event", Json.Str "alloc");
          ("block", Json.int bid);
          ("name", Json.Str name);
          ("elems", Json.int elems);
          ("in_kernel", Json.Bool in_kernel);
        ]
  | Kernel k ->
      Json.Obj
        [
          ("event", Json.Str "kernel");
          ("id", Json.int k.kid);
          ("label", Json.Str k.klabel);
          ("threads", Json.int k.kthreads);
          ( "declared_writes",
            Json.Arr (List.map json_footprint k.declared_writes) );
          ( "declared_reads",
            Json.Arr (List.map json_footprint k.declared_reads) );
          ("fresh", json_ints k.fresh);
          ("writes", json_offsets k.writes);
          ("reads", json_offsets k.reads);
          ("read_bytes", Json.Num k.read_bytes);
          ("write_bytes", Json.Num k.write_bytes);
        ]
  | Copy c ->
      Json.Obj
        [
          ("event", Json.Str "copy");
          ("src", Json.int c.csrc);
          ("dst", Json.int c.cdst);
          ("shape", json_ints c.cshape);
          ("src_ix", json_region c.csix);
          ("dst_ix", json_region c.cdix);
          ("bytes", Json.Num c.cbytes);
          ("elided", Json.Bool c.celided);
          ("in_kernel", Json.Bool c.cin_kernel);
        ]
  | Last_use { var; bid } ->
      Json.Obj
        [
          ("event", Json.Str "last_use");
          ("var", Json.Str var);
          ("block", Json.int bid);
        ]

let to_json t =
  let tr = traffic t in
  Json.Obj
    [
      ("program", Json.Str t.program);
      ("variant", Json.Str t.variant);
      ( "traffic",
        Json.Obj
          [
            ("kernel_reads", Json.Num tr.t_kernel_reads);
            ("kernel_writes", Json.Num tr.t_kernel_writes);
            ("copy_bytes", Json.Num tr.t_copy_bytes);
            ("elided_bytes", Json.Num tr.t_elided_bytes);
          ] );
      ( "histogram",
        Json.Arr
          (List.map
             (fun (l, n, r, w) ->
               Json.Obj
                 [
                   ("label", Json.Str l);
                   ("launches", Json.int n);
                   ("read_bytes", Json.Num r);
                   ("write_bytes", Json.Num w);
                 ])
             (histogram t)) );
      ("events", Json.Arr (List.map json_event (events t)));
    ]

(* ---------------------------------------------------------------- *)
(* Skeletons: variant-invariant logical event sequences              *)
(* ---------------------------------------------------------------- *)

(* The memory optimizations relocate and elide storage; they must not
   change *what* the program computes.  The skeleton of a trace is the
   sequence of logical actions - kernel launches (by base label and
   thread count) and logical copies (by shape) - with everything the
   optimizer is allowed to change stripped: block identities, copy
   elision, allocations, liveness markers.  Two variants of one
   program must produce identical skeletons. *)
type skeleton_event =
  | SKernel of { slabel : string; sthreads : int }
  | SCopy of { sshape : int list }

let skeleton t : skeleton_event list =
  List.filter_map
    (function
      | Kernel k ->
          Some
            (SKernel
               { slabel = Ir.Names.base k.klabel; sthreads = k.kthreads })
      | Copy c when not c.cin_kernel -> Some (SCopy { sshape = c.cshape })
      | Alloc _ | Copy _ | Last_use _ -> None)
    (events t)

let pp_skeleton_event ppf = function
  | SKernel { slabel; sthreads } ->
      Fmt.pf ppf "kernel %s (%d threads)" slabel sthreads
  | SCopy { sshape } ->
      Fmt.pf ppf "copy [%a]" Fmt.(list ~sep:comma int) sshape

(* The first ten skeleton divergences between two traces of the same
   program, rendered; empty means the variants agree on the logical
   event sequence. *)
let diff ta tb : string list =
  let limit = 10 in
  let sa = Array.of_list (skeleton ta)
  and sb = Array.of_list (skeleton tb) in
  let na = Array.length sa and nb = Array.length sb in
  let out = ref [] and count = ref 0 in
  let emit fmt = Fmt.kstr (fun s -> out := s :: !out; incr count) fmt in
  let i = ref 0 in
  while !i < max na nb && !count < limit do
    (match
       ( (if !i < na then Some sa.(!i) else None),
         if !i < nb then Some sb.(!i) else None )
     with
    | Some a, Some b when a = b -> ()
    | Some a, Some b ->
        emit "event %d: %s %a <> %s %a" !i (variant ta) pp_skeleton_event a
          (variant tb) pp_skeleton_event b
    | Some a, None ->
        emit "event %d: only in %s: %a" !i (variant ta) pp_skeleton_event a
    | None, Some b ->
        emit "event %d: only in %s: %a" !i (variant tb) pp_skeleton_event b
    | None, None -> ());
    incr i
  done;
  let rest = max na nb - !i in
  if !count >= limit && rest > 0 then
    emit "... (%d further events not compared)" rest;
  if na <> nb && !count < limit then
    emit "event counts differ: %s has %d, %s has %d" (variant ta) na
      (variant tb) nb;
  List.rev !out

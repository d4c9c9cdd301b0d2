(* Spans recorded from outside the program, around calls into each
   layer's public functions: a name, start and end on the monotonic
   clock, the enclosing span, and the prover work done while the span
   was open (a delta of [Symalg.Prover.stats]).  The spans of one
   operation share its [op] label; they stay in memory until the run
   ends. *)

type t = {
  id : int;
  parent : int;  (** -1 for an operation's root span *)
  op : string;
  name : string;
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
  prover : int array;  (** deltas, indexed like {!prover_fields} *)
}

let prover_fields =
  [| "nonneg_hits"; "nonneg_misses"; "sat_hits"; "sat_misses";
     "budget_exhausted" |]

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let prover_now () =
  let s = Symalg.Prover.stats () in
  Symalg.Prover.
    [| s.nonneg_hits; s.nonneg_misses; s.sat_hits; s.sat_misses;
       s.budget_exhausted |]

let on = ref false
let op_label = ref ""
let open_ids = ref []
let next_id = ref 0
let finished = ref []

(* Seconds spent recording spans, outside the intervals they time. *)
let cost = ref 0.

(* Untraced, [span] is a plain call. *)
let span name f =
  if not !on then f ()
  else begin
    let t_in = now () in
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let p0 = prover_now () and t0 = now () in
    cost := !cost +. (t0 -. t_in);
    Fun.protect
      ~finally:(fun () ->
        let stop = now () and p1 = prover_now () in
        open_ids := List.tl !open_ids;
        finished :=
          {
            id;
            parent;
            op = !op_label;
            name;
            start = t0;
            stop;
            prover = Array.map2 ( - ) p1 p0;
          }
          :: !finished;
        cost := !cost +. (now () -. stop))
      f
  end

(* Run [f] with tracing on when [traced], returning its spans in start
   order and the seconds spent recording them.  Each operation runs in
   its own child, so ids restart per operation and are made unique by
   [op]. *)
let record ~traced ~op f =
  on := traced;
  op_label := op;
  open_ids := [];
  next_id := 0;
  finished := [];
  cost := 0.;
  let r = f () in
  on := false;
  (r, List.sort (fun a b -> compare a.start b.start) !finished, !cost)

let dur s = s.stop -. s.start

(* A span's self time: its duration minus that of its direct
   children (children never outlive their parent). *)
let self_times (spans : t list) : (t * float) list =
  let child = Hashtbl.create 64 in
  let covered k = Option.value ~default:0. (Hashtbl.find_opt child k) in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let k = (s.op, s.parent) in
        Hashtbl.replace child k (dur s +. covered k))
    spans;
  List.map (fun s -> (s, dur s -. covered (s.op, s.id))) spans

(* Span names and operation labels are program and pass names, which
   need no escaping. *)
let to_json (spans : t list) =
  let one s =
    Printf.sprintf
      "{\"op\":\"%s\",\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%.9f,\
       \"end\":%.9f,\"prover\":{%s}}"
      s.op s.id s.parent s.name s.start s.stop
      (String.concat ","
         (Array.to_list
            (Array.mapi
               (fun i f -> Printf.sprintf "\"%s\":%d" f s.prover.(i))
               prover_fields)))
  in
  "{\"spans\":[\n" ^ String.concat ",\n" (List.map one spans) ^ "\n]}\n"

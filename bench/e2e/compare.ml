(* [e2e.exe compare A.jsonl... -- B.jsonl...]: the choosing-metrics
   section 8 rule, per (workload, metric), between two sets of result
   records (the lines [run -o] appends).  For each side it reports the
   median and quartiles, then the share of index-paired runs B won.  A
   metric is "worse" when B's median is past the metric's bound,
   "better" when it improves past the bound, and "unresolved" when A's
   own spread (interquartile range over median) is wider than the bound
   and the two sides overlap; otherwise "same".  Pooled fail_ratio may
   not rise.  Run on two sets of the same commit, it checks that the
   benchmark agrees with itself.  Exits 1 on any worse metric. *)

module J = Benchsuite.Benchjson

type run = {
  workload : string;
  attempted : float;
  failed : float;
  metrics : (string * float) list;
  counts : (string * float list) list;
}

let run_of_json path v =
  let obj k = match J.member k v with Some (J.Obj kv) -> kv | _ -> [] in
  let num k = Option.bind (J.member k v) J.num in
  match Option.bind (J.member "workload" v) J.str with
  | None -> failwith (path ^ ": a record without a workload")
  | Some workload ->
      {
        workload;
        attempted = Option.value ~default:0. (num "attempted");
        failed = Option.value ~default:0. (num "failed");
        metrics =
          List.filter_map
            (fun (k, m) ->
              Option.map (fun x -> (k, x)) (J.num_at [ "value" ] m))
            (obj "metrics");
        counts =
          List.map
            (fun (k, a) ->
              (k, List.filter_map J.num (Option.value ~default:[] (J.arr a))))
            (obj "counts");
      }

let read path : run list =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match J.parse l with
         | Ok v -> run_of_json path v
         | Error e -> failwith (Printf.sprintf "%s: %s" path e))

(* Signed relative change of B against A, positive when B is worse. *)
let worsening better a b =
  let delta = match better with Metric.Lower -> b -. a | Higher -> a -. b in
  if a = 0. then if delta = 0. then 0. else Float.copy_sign infinity delta
  else delta /. Float.abs a

let take n l = List.filteri (fun i _ -> i < n) l

(* Each side's median and quartiles, B's change, and the pairs B won. *)
let describe better va vb =
  let ma = Metric.median va and mb = Metric.median vb in
  let q1, q3 = Metric.quartiles va and q1b, q3b = Metric.quartiles vb in
  let n = min (List.length va) (List.length vb) in
  let wins =
    List.length
      (List.filter
         (fun (x, y) -> worsening better x y < 0.)
         (List.combine (take n va) (take n vb)))
  in
  ( wins,
    n,
    Printf.sprintf
      "%12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  %+8.2f%%  wins %d/%d" ma q1 q3
      mb q1b q3b
      (100. *. worsening better ma mb)
      wins n )

let verdict (d : Metric.t) va vb =
  let ma = Metric.median va and mb = Metric.median vb in
  let q1, q3 = Metric.quartiles va in
  let spread =
    if ma = 0. then if q3 = q1 then 0. else infinity
    else (q3 -. q1) /. Float.abs ma
  in
  let change = worsening d.better ma mb in
  let bound = Metric.bound_at d ~median:ma in
  let every p =
    List.for_all
      (fun y -> List.for_all (fun x -> p (worsening d.better x y)) va)
      vb
  in
  let all_better = every (fun c -> c < 0.)
  and all_worse = every (fun c -> c > 0.) in
  let wins, n, line = describe d.better va vb in
  let v =
    if bound = 0. then
      if change > 0. then "worse" else if change < 0. then "better" else "same"
    else if spread > bound && not (all_better || all_worse) then "unresolved"
    else if change > bound then "worse"
    else if -.change > bound then "better"
    else "same"
  in
  (* a gain is claimable only when B wins nine tenths of the pairs and
     the medians differ by more than A's interquartile range *)
  let claim =
    v = "better" && 10 * wins >= 9 * n && Float.abs (mb -. ma) > q3 -. q1
  in
  (v, bound, if claim then line ^ "  gain claimable" else line)

let repeat_note = function
  | [] -> "absent"
  | x :: _ as vs when List.for_all (( = ) x) vs ->
      Printf.sprintf "%.10g repeated over %d rounds" x (List.length vs)
  | vs ->
      Printf.sprintf "%g..%g NOT repeated"
        (List.fold_left Float.min infinity vs)
        (List.fold_left Float.max neg_infinity vs)

type tally = { mutable worse : int; mutable better : int; mutable open_ : int }

let compare_workload tally w sa sb =
  let names =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst r.metrics) (sa @ sb))
  in
  List.iter
    (fun name ->
      let vals s = List.filter_map (fun r -> List.assoc_opt name r.metrics) s in
      let va = vals sa and vb = vals sb in
      if va <> [] && vb <> [] && name <> "fail_ratio" then
        match Metric.find name with
        | Some d ->
            let v, bound, line = verdict d va vb in
            (match v with
            | "worse" -> tally.worse <- tally.worse + 1
            | "better" -> tally.better <- tally.better + 1
            | "unresolved" -> tally.open_ <- tally.open_ + 1
            | _ -> ());
            Printf.printf "%-8s %-34s %-12s %s  (bound %.3g%%)\n" w name v line
              (100. *. bound)
        | None ->
            (* per-layer metrics carry no bound: shown, not judged *)
            let _, _, line = describe Metric.Lower va vb in
            Printf.printf "%-8s %-34s %-12s %s\n" w name "info" line)
    names;
  let pooled s =
    let a = List.fold_left (fun t r -> t +. r.attempted) 0. s
    and f = List.fold_left (fun t r -> t +. r.failed) 0. s in
    if a = 0. then 0. else f /. a
  in
  let fa = pooled sa and fb = pooled sb in
  Printf.printf "%-8s %-34s %-12s %g -> %g\n" w "fail_ratio (pooled)"
    (if fb > fa then "worse" else "same")
    fa fb;
  if fb > fa then tally.worse <- tally.worse + 1;
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst r.counts) (sa @ sb))
  in
  List.iter
    (fun k ->
      let vs s =
        List.concat_map
          (fun r -> Option.value ~default:[] (List.assoc_opt k r.counts))
          s
      in
      let a = vs sa and b = vs sb in
      let repeats = function
        | [] -> false
        | x :: _ as l -> List.for_all (( = ) x) l
      in
      Printf.printf "%-8s count %-28s %-13s A %s; B %s\n" w k
        (if repeats a && repeats b then "claimable" else "NOT claimable")
        (repeat_note a) (repeat_note b))
    keys

let main args =
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] args with
  | None | Some ([], _) | Some (_, []) ->
      prerr_endline "usage: e2e.exe compare A.jsonl... -- B.jsonl...";
      2
  | Some (fa, fb) ->
      let ra = List.concat_map read fa and rb = List.concat_map read fb in
      let tally = { worse = 0; better = 0; open_ = 0 } in
      Printf.printf "compare: %d record(s) vs %d record(s)\n" (List.length ra)
        (List.length rb);
      Printf.printf "%-8s %-34s %-12s %34s  %34s  %9s\n" "workload" "metric"
        "verdict" "A median [q1, q3]" "B median [q1, q3]" "change";
      List.iter
        (fun w ->
          let side = List.filter (fun r -> r.workload = w) in
          match (side ra, side rb) with
          | [], _ | _, [] -> Printf.printf "%-8s present on one side only\n" w
          | sa, sb -> compare_workload tally w sa sb)
        (List.sort_uniq compare (List.map (fun r -> r.workload) (ra @ rb)));
      Printf.printf "summary: %d worse, %d better, %d unresolved\n"
        tally.worse tally.better tally.open_;
      if tally.worse > 0 then 1 else 0

(* Smoke test of the end-to-end benchmark: run every workload that
   BENCHMARK.json lists on hotspot and nn for one round, plain and
   traced, and check each run's last line - the result BENCHMARK.json
   describes.  It must parse, report correct with nothing failed,
   and carry exactly the metrics BENCHMARK.json names (end_to_end for a
   plain run, per_layer for a traced one), each with its unit.  The
   end-to-end entries must also agree with [Metric]'s units, directions
   and gates.

   usage: smoke.exe E2E_EXE BENCHMARK_JSON *)

module J = Benchsuite.Benchjson

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("smoke: " ^ s))
    fmt

let str k v = Option.value ~default:"" (Option.bind (J.member k v) J.str)
let list k v = Option.value ~default:[] (Option.bind (J.member k v) J.arr)

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (out, Unix.close_process_in ic)

let check_metrics label expected metrics =
  List.iter
    (fun (name, unit_) ->
      match List.assoc_opt name metrics with
      | None -> fail "%s: metric %s missing" label name
      | Some m ->
          if str "unit" m <> unit_ then
            fail "%s: %s has unit %S" label name (str "unit" m);
          if Option.bind (J.member "value" m) J.num = None then
            fail "%s: %s has no numeric value" label name)
    expected;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name expected) then
        fail "%s: metric %s is not in BENCHMARK.json" label name)
    metrics

let check_run exe label args expected =
  let out, status =
    run exe
      (args
      @ [ "--programs"; "hotspot,nn"; "--seconds"; "0"; "--spans";
          "smoke-spans.json" ])
  in
  if status <> Unix.WEXITED 0 then fail "%s: nonzero exit" label;
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  match Option.map J.parse (List.nth_opt (List.rev lines) 0) with
  | None -> fail "%s: no output" label
  | Some (Error e) -> fail "%s: last line does not parse: %s" label e
  | Some (Ok (J.Obj kv as v)) ->
      let keys = List.sort compare (List.map fst kv) in
      if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
        fail "%s: keys %s" label (String.concat "," keys);
      if J.member "correct" v <> Some (J.Bool true) then
        fail "%s: not correct" label;
      if J.member "failed" v <> Some (J.Num 0.) then
        fail "%s: fail_ratio is not 0" label;
      (match Option.bind (J.member "attempted" v) J.num with
      | Some a when a >= 1. -> ()
      | _ -> fail "%s: attempted < 1" label);
      check_metrics label expected
        (match J.member "metrics" v with Some (J.Obj m) -> m | _ -> [])
  | Some (Ok _) -> fail "%s: last line is not an object" label

(* BENCHMARK.json's end_to_end entries against [Metric]. *)
let check_spec spec =
  List.iter
    (fun m ->
      let name = str "name" m in
      match Metric.find name with
      | None -> fail "end_to_end metric %s is not defined in Metric" name
      | Some d ->
          let better =
            match d.better with Metric.Lower -> "lower" | Higher -> "higher"
          in
          if
            d.unit_ <> str "unit" m
            || better <> str "better" m
            || Some d.gate <> Option.bind (J.member "bound" m) J.num
          then fail "end_to_end metric %s disagrees with Metric" name)
    (list "end_to_end" spec);
  let names = List.map (str "name") (list "end_to_end" spec) in
  if List.sort compare names <> List.sort compare Metric.listed then
    fail "end_to_end names differ from Metric.listed"

let () =
  let exe =
    let e = Sys.argv.(1) in
    if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e
  in
  let spec =
    match J.parse (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all)
    with
    | Ok v -> v
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let named k =
    List.map (fun m -> (str "name" m, str "unit" m)) (list k spec)
  in
  check_spec spec;
  List.iter
    (fun w ->
      let w = str "name" w in
      check_run exe w
        [ "run"; "--workload"; w; "--trace"; "0" ]
        (named "end_to_end");
      check_run exe (w ^ " traced")
        [ "run"; "--workload"; w; "--trace"; "1" ]
        (named "per_layer"))
    (list "workloads" spec);
  if !failures > 0 then exit 1;
  print_endline "smoke: ok"

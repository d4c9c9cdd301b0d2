(* The end-to-end metrics, their direction and the bound by which each
   may worsen before a change counts as a regression.  The first three
   are the ones BENCHMARK.json lists (the smoke test checks that the
   two agree); the rest are reported per workload where they are
   defined, and gated by [e2e.exe compare].  A bound is a share of the
   baseline's median; [floor], when positive, is an absolute allowance
   in the metric's unit that applies when it is the larger.  A bound of
   0 means the value must repeat exactly.

   [gate] is the bound BENCHMARK.json states, a share of at most 25%.
   The gate that reads BENCHMARK.json has no "unresolved" verdict: it
   rejects a benchmark whose own ten-run spread exceeds the bound.  So
   where [compare]'s bound is narrower than one workload's spread, the
   gate is wider.  round_s and peak_heap_mb gate at 20%: lint rests on
   one NW compile whose work depends on host speed (the non-overlap
   test stops a search after 4 s of CPU time, and a slower host stops
   up to 16 searches instead of 6), so its round time spreads up to 9%
   and its heap up to 5% across ten runs of one commit.  setup_s has no fixed share under
   its absolute floor and gates at the most the file allows. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
  floor : float;
  gate : float;
}

let m ?(floor = 0.) ?gate name unit_ better bound =
  { name; unit_; better; bound; floor; gate = Option.value gate ~default:bound }

let end_to_end =
  [
    m "round_s" "s" Lower 0.10 ~gate:0.20;
    m "setup_s" "s" Lower 0.10 ~floor:0.25 ~gate:0.25;
    m "peak_heap_mb" "MB" Lower 0.10 ~gate:0.20;
    m "fail_ratio" "ratio" Lower 0.;
    m "circuits" "count" Higher 0.;
    m "obligations_proved" "count" Higher 0.;
    (* NW's searches stop at a CPU deadline, which moves one or two of
       its ~396 verdicts between runs *)
    m "lint_decided_ratio" "ratio" Higher 0.005;
    m "device_speedup" "x" Higher 0.001;
    m "device_vs_ref" "x" Higher 0.001;
    m "device_peak_mb" "MB" Lower 0.001;
    m "device_allocs" "count" Lower 0.;
  ]

(* The subset BENCHMARK.json lists, printed on a plain run's result
   line: defined on every workload and never 0. *)
let listed = [ "round_s"; "setup_s"; "peak_heap_mb" ]

let find name = List.find_opt (fun m -> m.name = name) end_to_end

(* The share by which a value may worsen against a baseline median. *)
let bound_at d ~median =
  if d.floor > 0. && median <> 0. then
    Float.max d.bound (d.floor /. Float.abs median)
  else d.bound

(* ---- order statistics ------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads read the same here and
   in any script checking the runs. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
      let a = Array.of_list s in
      let m = Array.length a + 1 in
      let q i =
        let j = max 1 (min (Array.length a - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      (q 1, q 3)

let geomean_of_logs ~sum ~n = if n = 0. then nan else exp (sum /. n)

(* Host-speed calibration.  The benchmark host is shared, and for
   minutes at a time it runs everything 10-70% slower; no statistic
   over one run removes a slowdown that covers the whole run.  So a
   fixed kernel that uses none of the repository's code is timed, each
   time in its own child, before the first operation, after each, and
   once a second while an operation runs, with the operation's child
   stopped meanwhile.  An operation's CPU time is scaled by [ref_s] over
   the mean of the kernel times around and during it.  A change to the
   compiler moves the scaled time; a change in host speed moves the
   kernel with it and cancels.  Timing the kernel during an operation
   matters for the long ones: the host's speed drifts within the 17-50 s
   of a lint or chaos operation, and with kernel times from before and
   after alone one chaos round spread 20% over ten runs, against 2-4%
   with them.  The
   kernel allocates into a balanced map and sorts a list, the same kind
   of work as the compiler's symbolic terms. *)

module IM = Map.Make (Int)

(* The kernel's time on the quiet development host (a 2.1 GHz Xeon), so
   a scaled time reads as that host's seconds. *)
let ref_s = 0.045

(* Seconds an operation runs between two kernel timings. *)
let every = 1.0

(* Its CPU time, like an operation's: time the hypervisor gives the
   virtual CPU to other tenants (steal) counts in neither. *)
let kernel () =
  let t0 = Sys.time () in
  let m = ref IM.empty in
  for i = 0 to 60_000 do
    m := IM.add ((i * 7919) mod 1_000_003) i !m
  done;
  let l =
    List.sort compare (List.init 60_000 (fun i -> (i * 31337) mod 65_521))
  in
  ignore (Sys.opaque_identity (IM.cardinal !m + List.length l));
  Sys.time () -. t0

let measure () =
  match Child.run kernel with
  | Ok t -> t
  | Error why -> failwith ("calibration kernel: " ^ why)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Run each of [fs] in its own child, in turn, with the kernel timed
   before the first, after each, and, when [sampled], every [every]
   seconds during each.  Pair each result with the mean kernel time
   around and during it.  Traced rounds must not be sampled: their span
   times are wall-clock. *)
let around ~sampled (fs : (unit -> 'a) list) :
    (('a, string) result * float) list =
  let before = ref (measure ()) in
  List.map
    (fun f ->
      let during = ref [] in
      let r =
        if sampled then
          Child.run ~every ~pause:(fun () -> during := measure () :: !during) f
        else Child.run f
      in
      let after = measure () in
      let cal = mean (!before :: after :: !during) in
      before := after;
      (r, cal))
    fs

(* [dt] seconds measured while the kernel took [cal], in reference
   seconds. *)
let scale ~cal dt = dt *. ref_s /. cal

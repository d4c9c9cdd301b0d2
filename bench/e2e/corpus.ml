(* The benchmark corpus: the seven paper programs at the small
   arguments `repro` validates with, plus NW compiled from its
   surface-language text (so the frontend is part of what a compile
   costs). *)

module B = Benchsuite

type entry = {
  name : string;
  source : unit -> Ir.Ast.prog;
      (* the memory-agnostic program; for [nw-src] this runs the
         frontend, so calling it is part of the operation *)
  small_args : unit -> Ir.Value.t list;
  datasets : unit -> B.Runner.dataset list;  (* paper-scale, cost-only *)
}

let all =
  [
    {
      name = "nw";
      source = (fun () -> B.Nw.prog);
      small_args = (fun () -> B.Nw.small_args ~q:3 ~b:4);
      datasets = B.Nw.datasets;
    };
    {
      name = "nw-src";
      source = B.Nw_source.prog;
      small_args = (fun () -> B.Nw.small_args ~q:3 ~b:4);
      datasets = B.Nw.datasets;
    };
    {
      name = "lud";
      source = (fun () -> B.Lud.prog);
      small_args = (fun () -> B.Lud.small_args ~q:3 ~b:4);
      datasets = B.Lud.datasets;
    };
    {
      name = "hotspot";
      source = (fun () -> B.Hotspot.prog);
      small_args = (fun () -> B.Hotspot.small_args ~n:16 ~steps:3);
      datasets = B.Hotspot.datasets;
    };
    {
      name = "lbm";
      source = (fun () -> B.Lbm.prog);
      small_args = (fun () -> B.Lbm.small_args ~n:8 ~steps:3);
      datasets = B.Lbm.datasets;
    };
    {
      name = "optionpricing";
      source = (fun () -> B.Option_pricing.prog);
      small_args =
        (fun () -> B.Option_pricing.small_args ~npaths:64 ~nsteps:16);
      datasets = B.Option_pricing.datasets;
    };
    {
      name = "locvolcalib";
      source = (fun () -> B.Locvolcalib.prog);
      small_args =
        (fun () -> B.Locvolcalib.small_args ~numo:6 ~numx:12 ~numt:4);
      datasets = B.Locvolcalib.datasets;
    };
    {
      name = "nn";
      source = (fun () -> B.Nn.prog);
      small_args = (fun () -> B.Nn.small_args ~nrec:100 ~nbatch:4 ~bsz:8);
      datasets = B.Nn.datasets;
    };
  ]

let names = List.map (fun e -> e.name) all

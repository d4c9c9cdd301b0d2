(* The paper's seven benchmarks in table order, Tables I-VII: the one
   list `repro` and every suite-wide test iterate. *)

let all : Runner.bench list =
  [
    Nw.bench;
    Lud.bench;
    Hotspot.bench;
    Lbm.bench;
    Option_pricing.bench;
    Locvolcalib.bench;
    Nn.bench;
  ]

(* ["all"], or the one benchmark named (in any case) or numbered. *)
let select which : (Runner.bench list, string) result =
  let is (b : Runner.bench) =
    b.name = String.lowercase_ascii which || string_of_int b.table_no = which
  in
  if which = "all" then Ok all
  else
    match List.find_opt is all with
    | Some b -> Ok [ b ]
    | None ->
        Error
          (Printf.sprintf "unknown benchmark %S (try: %s)" which
             (String.concat ", "
                (List.map (fun (b : Runner.bench) -> b.name) all)))

(* Structured fault taxonomy for the fail-safe pipeline (see the
   interface and docs/ROBUSTNESS.md for the recovery policy). *)

type t =
  | Prover_budget of { exhausted : int }
  | Pass_crash of { pass : string; exn : string }
  | Lint_reject of { pass : string; violation : string }
  | Cert_refuted of { pass : string; obligation : string }
  | Device_oom of { bytes : float; at_alloc : int }
  | Pool_cap of { bytes : float; cap : float }
  | Internal of { where : string; detail : string }

exception Fault of t

let fail f = raise (Fault f)

let internal ~where fmt =
  Fmt.kstr (fun detail -> fail (Internal { where; detail })) fmt

let blame = function
  | Prover_budget _ -> "prover"
  | Pass_crash { pass; _ } | Lint_reject { pass; _ } | Cert_refuted { pass; _ }
    ->
      pass
  | Device_oom _ -> "device"
  | Pool_cap _ -> "pool"
  | Internal { where; _ } -> where

let layer = function
  | Prover_budget _ -> "prover-budget"
  | Pass_crash _ -> "pass-crash"
  | Lint_reject _ -> "lint-reject"
  | Cert_refuted _ -> "cert-refuted"
  | Device_oom _ -> "device-oom"
  | Pool_cap _ -> "pool-cap"
  | Internal _ -> "internal"

let detail = function
  | Prover_budget { exhausted } ->
      Fmt.str "%d obligation(s) hit the prover budget" exhausted
  | Pass_crash { exn; _ } -> exn
  | Lint_reject { violation; _ } -> violation
  | Cert_refuted { obligation; _ } -> obligation
  | Device_oom { bytes; at_alloc } ->
      Fmt.str "allocation #%d of %g bytes refused" at_alloc bytes
  | Pool_cap { bytes; cap } ->
      Fmt.str "%g live bytes refused under a %g-byte cap" bytes cap
  | Internal { detail; _ } -> detail

let pp ppf f = Fmt.pf ppf "%s fault in %s: %s" (layer f) (blame f) (detail f)
let to_string f = Fmt.str "%a" pp f

(* Run one operation in a fresh forked child and bring its result back
   marshalled over a pipe.  Every sample then starts from the parent's
   state - in particular a cold prover memo, as a `repro` invocation
   does - and a crashing or hanging operation costs one failed sample,
   not the run.  Children run one at a time. *)

(* An operation that has not finished after this long is killed and
   counted as failed, so a hung compile cannot outlast the run.  The
   longest operation, a chaos campaign over the corpus, takes 45 s of
   CPU time, and up to 120 s of wall time while other tenants hold the
   host's CPUs. *)
let timeout_s = 150

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

(* With [every > 0], each time the child has run [every] seconds without
   finishing, it is stopped, [pause] runs, and it continues: the time a
   child spends stopped is not CPU time it used. *)
let run ?(every = 0.) ?(pause = ignore) (f : unit -> 'a) : ('a, string) result
    =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      (* The parent's stdout carries the result line; anything the
         program prints goes to stderr. *)
      Unix.close rd;
      Unix.dup2 Unix.stderr Unix.stdout;
      ignore (Unix.alarm timeout_s);
      (* Finish the major cycle inherited from the parent, so that the
         operation's heap and time do not depend on where the parent's
         collector stood when it forked. *)
      Gc.full_major ();
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc r [];
      flush oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      (* Set when the child ends while being stopped. *)
      let ended = ref None in
      let rec watch () =
        match Unix.select [ rd ] [] [] every with
        | [], _, _ -> (
            Unix.kill pid Sys.sigstop;
            match waitpid [ Unix.WUNTRACED ] pid with
            | _, Unix.WSTOPPED _ ->
                pause ();
                Unix.kill pid Sys.sigcont;
                watch ()
            | _, status -> ended := Some status)
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> watch ()
      in
      if every > 0. then watch ();
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "child ended without a result"
      in
      close_in ic;
      let status =
        match !ended with Some s -> s | None -> snd (waitpid [] pid)
      in
      (match (status, r) with
      | Unix.WEXITED 0, r -> r
      | Unix.WEXITED n, _ -> Error (Printf.sprintf "child exited with %d" n)
      | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
          Error (Printf.sprintf "child killed by signal %d" s))

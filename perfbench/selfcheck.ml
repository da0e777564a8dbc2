(* Determinism self-check of the benchmark, on every workload's quality
   job set (no timing involved):

   - the same seed run twice gives identical quality metrics and job
     outputs;
   - one domain and [nproc] domains give identical quality metrics and
     job outputs;
   - a held-out seed passes the output check (and the exact-kernel
     oracle) on every job.

     dune build @perfbench/selfcheck *)

let seed = 1
let held_out_seed = 424_242

let quality_jobs spec ~seed ~domains =
  let session, _ = Runner.setup ~domains in
  let jobs = Runner.loop session spec ~seed ~seconds:0.0 in
  let dense = Jobs.dense_check session ~seed in
  Codetomo.Session.close session;
  let outcomes = List.filter_map (fun j -> j.Runner.outcome) jobs in
  let q = Jobs.quality outcomes in
  let shown =
    Printf.sprintf "taken_reduction %h perfect_recovery %h theta_mae %h" q.Jobs.taken_reduction
      q.perfect_recovery q.theta_mae
  in
  let errors =
    List.concat_map
      (fun (j : Runner.job) ->
        List.map (Printf.sprintf "job %d (%s): %s" j.index (Jobs.cell_label j.cell))
          (if j.outcome = None && j.errors = [] then [ "no outcome" ] else j.errors))
      jobs
    @ dense
  in
  (shown, List.map (fun (o : Jobs.outcome) -> o.fingerprint) outcomes, errors)

let () =
  let nproc = Domain.recommended_domain_count () in
  let failures = ref 0 in
  let expect ok fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") m;
        if not ok then incr failures)
      fmt
  in
  List.iter
    (fun (spec : Jobs.spec) ->
      let a_q, a_f, a_err = quality_jobs spec ~seed ~domains:nproc in
      let b_q, b_f, _ = quality_jobs spec ~seed ~domains:nproc in
      let c_q, c_f, _ = quality_jobs spec ~seed ~domains:1 in
      expect (a_err = []) "%s seed %d: output check on %d jobs" spec.name seed (List.length a_f);
      List.iter (Printf.printf "     %s\n") a_err;
      expect (a_q = b_q && a_f = b_f) "%s seed %d twice: %s" spec.name seed a_q;
      expect (a_q = c_q && a_f = c_f) "%s domains %d vs 1: %s / %s" spec.name nproc a_q c_q;
      let _, h_f, h_err = quality_jobs spec ~seed:held_out_seed ~domains:nproc in
      expect (h_err = []) "%s held-out seed %d: output check on %d jobs" spec.name held_out_seed
        (List.length h_f);
      List.iter (Printf.printf "     %s\n") h_err)
    Jobs.specs;
  if !failures > 0 then (
    Printf.printf "%d self-check failures\n" !failures;
    exit 1)

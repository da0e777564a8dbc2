(* One benchmark run of one workload: timed set-up, the closed-loop timed
   job loop (one client, whole cycles), the untimed checks, and on
   request the traced replay. *)

module S = Codetomo.Session

let now = Unix.gettimeofday

type job = {
  index : int;
  cell : Jobs.cell;
  wall : float;
  errors : string list;
  outcome : Jobs.outcome option;
}

type result = {
  spec : Jobs.spec;
  seed : int;
  domains : int;
  setup_s : float list;
  jobs : job list;
  dense_errors : string list;
  peak_rss_mb : float;
}

let setup ~domains =
  let t0 = now () in
  let session = S.create ~domains () in
  Jobs.warm session;
  (session, now () -. t0)

(* Each job starts from a collected heap, as a fresh [ctomo place]
   process would, so garbage left by the previous job's untimed check is
   not charged to the next job. *)
let run_job session cell ~seed ~index =
  Gc.full_major ();
  let wall = ref 0.0 in
  let timed f =
    let t0 = now () in
    Fun.protect ~finally:(fun () -> wall := now () -. t0) f
  in
  let timer = { Jobs.timed } in
  let errors, outcome =
    match Jobs.run_cell session cell ~seed:(Jobs.job_seed ~seed index) ~timer with
    | errors, outcome -> (errors, Some outcome)
    | exception e -> ([ Printexc.to_string e ], None)
  in
  { index; cell; wall = !wall; errors; outcome }

let quality_jobs (spec : Jobs.spec) = Array.length spec.Jobs.cells * spec.quality_cycles
let replay_jobs (spec : Jobs.spec) = Array.length spec.Jobs.cells * spec.replay_cycles

(* Closed loop over whole cycles until [seconds] of job wall time have
   passed and the quality job set is complete. *)
let loop ?(before_job = ignore) session (spec : Jobs.spec) ~seed ~seconds =
  let len = Array.length spec.Jobs.cells in
  let rec go index elapsed acc =
    if index >= quality_jobs spec && elapsed >= seconds && index mod len = 0 then List.rev acc
    else
      let () = before_job () in
      let j = run_job session spec.cells.(index mod len) ~seed ~index in
      go (index + 1) (elapsed +. j.wall) (j :: acc)
  in
  go 0 0.0 []

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' status)
  | exception Sys_error _ -> nan

(* Set-up is timed once for the session the jobs run on and once more,
   on a collected heap and thrown away, before every job.  Its median
   then covers the whole run, as the job metrics do, rather than a burst
   of a few milliseconds at its start. *)
let run (spec : Jobs.spec) ~seed ~seconds ~domains =
  let session, first = setup ~domains in
  let spares = ref [] in
  let before_job () =
    Gc.full_major ();
    let spare, t = setup ~domains in
    S.close spare;
    spares := t :: !spares
  in
  let jobs = loop ~before_job session spec ~seed ~seconds in
  let setup_s = first :: List.rev !spares in
  let dense_errors =
    try Jobs.dense_check session ~seed with e -> [ "dense check: " ^ Printexc.to_string e ]
  in
  S.close session;
  { spec; seed; domains; setup_s; jobs; dense_errors; peak_rss_mb = peak_rss_mb () }

(* {1 Statistics} *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Harrell-Davis estimate of quantile [q] of the sorted sample [a]: the
   order statistics weighted by how much of a Beta(q(n+1), (1-q)(n+1))
   density falls in each one's slice of [0,1].  A single order
   statistic in the tail takes one job's wall time, which can differ by
   half between runs of the same job; this averages the few around the
   same rank instead. *)
let harrell_davis a q =
  let n = Array.length a in
  let alpha = q *. float_of_int (n + 1) and beta = (1.0 -. q) *. float_of_int (n + 1) in
  (* Midpoint rule, [k] points per slice; log densities are shifted by
     their maximum before exponentiating. *)
  let k = 64 in
  let m = n * k in
  let log_density j =
    let x = (float_of_int j +. 0.5) /. float_of_int m in
    ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x))
  in
  let logs = Array.init m log_density in
  let top = Array.fold_left Float.max neg_infinity logs in
  let weight = Array.make n 0.0 in
  Array.iteri (fun j l -> weight.(j / k) <- weight.(j / k) +. exp (l -. top)) logs;
  let total = Array.fold_left ( +. ) 0.0 weight in
  let acc = ref 0.0 in
  Array.iteri (fun i w -> acc := !acc +. (w *. a.(i))) weight;
  !acc /. total

(* The highest whole percentile with at least ten jobs beyond it, as
   (percentile, Harrell-Davis value at that percentile, jobs beyond). *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let beyond p = n - int_of_float (Float.ceil (float_of_int (p * n) /. 100.0)) in
  let rec find p = if p <= 0 || beyond p >= 10 then p else find (p - 1) in
  let p = find 99 in
  (p, (if n = 0 then nan else harrell_davis a (float_of_int p /. 100.0)), beyond p)

let quality_set r = List.filter (fun j -> j.index < quality_jobs r.spec) r.jobs
let quality r = Jobs.quality (List.filter_map (fun j -> j.outcome) (quality_set r))

let failed r = List.length (List.filter (fun j -> j.errors <> [] || j.outcome = None) r.jobs)

(* {1 Traced replay} of the replay job set on a fresh, traced set-up.
   Each job also runs again untraced on the same session, before the
   traced run on even jobs and after it on odd ones, so the tracing
   overhead is measured between warm runs of the same job with the
   order effect cancelled. *)

type replay = { metrics : (string * float * string) list; mismatches : string list }

let replay r =
  let session = S.create ~domains:r.domains () in
  let rp = Replay.create session in
  Replay.setup rp;
  let timed = List.filter (fun j -> j.index < replay_jobs r.spec) r.jobs in
  let minor = ref 0.0 and majors = ref 0 and untraced_s = ref 0.0 in
  let mismatches =
    List.concat_map
      (fun j ->
        let label = Printf.sprintf "job %d (%s)" j.index (Jobs.cell_label j.cell) in
        let untraced () =
          untraced_s := !untraced_s +. (run_job session j.cell ~seed:r.seed ~index:j.index).wall
        in
        if j.index mod 2 = 0 then untraced ();
        Gc.full_major ();
        let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
        let traced =
          try Replay.job rp j.cell ~seed:(Jobs.job_seed ~seed:r.seed j.index)
          with e -> ("", [ "replay raised " ^ Printexc.to_string e ])
        in
        minor := !minor +. (Gc.minor_words () -. m0);
        majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - c0);
        if j.index mod 2 = 1 then untraced ();
        let fingerprint, errors = traced in
        List.map (fun e -> label ^ " replay: " ^ e) errors
        @
        match j.outcome with
        | Some o when String.equal o.Jobs.fingerprint fingerprint -> []
        | _ -> [ label ^ ": replay output differs from the timed run" ])
      timed
  in
  S.close session;
  {
    metrics =
      Replay.metrics rp ~domains:r.domains ~untraced_s:!untraced_s ~minor_words:!minor
        ~major_collections:(float_of_int !majors);
    mismatches;
  }

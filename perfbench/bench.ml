(* Benchmark entry point: one workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit REV]

   Prints a human-readable summary, one ["env"] JSON line, and as its
   last line the result object {correct, attempted, failed, metrics}:
   end-to-end metrics with --trace 0, per-layer metrics from the traced
   replay with --trace 1. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit REV]";
  exit 2

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = Printf.sprintf "%.17g" x

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let spec =
    match Jobs.find_spec (get "workload") with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" (get "workload")
          (String.concat ", " (List.map (fun s -> s.Jobs.name) Jobs.specs));
        exit 2
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" = 1 in
  let commit = Option.value ~default:"unknown" (List.assoc_opt "commit" opts) in
  let domains = Par.Pool.default_domains () in
  let r = Runner.run spec ~seed ~seconds ~domains in
  let walls = List.map (fun j -> j.Runner.wall) r.Runner.jobs in
  let attempted = List.length r.jobs and failed = Runner.failed r in
  let total_wall = List.fold_left ( +. ) 0.0 walls in
  let tail_p, tail_s, tail_beyond = Runner.tail walls in
  let q = Runner.quality r in
  Printf.printf "workload %s seed %d: %d jobs in %.3f s of job wall time, %d failed\n" spec.name
    seed attempted total_wall failed;
  List.iter
    (fun (j : Runner.job) ->
      List.iter
        (fun e -> Printf.printf "FAILED job %d (%s): %s\n" j.index (Jobs.cell_label j.cell) e)
        j.errors;
      if j.outcome = None && j.errors = [] then Printf.printf "FAILED job %d\n" j.index)
    r.jobs;
  List.iter (Printf.printf "FAILED %s\n") r.dense_errors;
  let end_to_end =
    [
      ("setup_s", Runner.median r.setup_s, "s");
      ("jobs_per_s", float_of_int attempted /. total_wall, "1/s");
      ("job_p50_s", Runner.median walls, "s");
      ("job_tail_s", tail_s, "s");
      ("peak_rss_mb", r.peak_rss_mb, "MB");
      ("taken_reduction", q.Jobs.taken_reduction, "fraction");
      ("perfect_recovery", q.perfect_recovery, "fraction");
      ("theta_mae", q.theta_mae, "prob");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-18s %.6g %s\n" n v u) end_to_end;
  Printf.printf "  job_tail_s is p%d over %d jobs (%d beyond); failed_ratio %g\n" tail_p attempted
    tail_beyond
    (float_of_int failed /. float_of_int (Stdlib.max 1 attempted));
  let replay = if trace then Some (Runner.replay r) else None in
  let metrics, mismatches =
    match replay with
    | None -> (end_to_end, [])
    | Some rp ->
        List.iter (fun (n, v, u) -> Printf.printf "  %-28s %.6g %s\n" n v u) rp.Runner.metrics;
        (rp.metrics, rp.mismatches)
  in
  List.iter (Printf.printf "FAILED %s\n") mismatches;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "FAILED a metric is not a finite number";
  let outcomes_sum f =
    List.fold_left
      (fun acc (j : Runner.job) -> acc + match j.outcome with Some o -> f o | None -> 0)
      0 r.jobs
  in
  let env =
    [
      ("workload", json_string spec.name);
      ("seed", string_of_int seed);
      ("seconds", json_number seconds);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("pool_domains", string_of_int domains);
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string commit);
      ("jobs", string_of_int attempted);
      ("quality_jobs", string_of_int (List.length (Runner.quality_set r)));
      ("setup_reps", string_of_int (List.length r.setup_s));
      ("job_tail_percentile", string_of_int tail_p);
      ("job_tail_samples", string_of_int attempted);
      ("job_tail_beyond", string_of_int tail_beyond);
      ("horizon_cuts", string_of_int (outcomes_sum (fun o -> o.Jobs.horizon_cuts)));
      ("reordered", string_of_int (outcomes_sum (fun o -> o.Jobs.reordered)));
      ("failed_ratio", json_number (float_of_int failed /. float_of_int (Stdlib.max 1 attempted)));
    ]
  in
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
  in
  print_endline (obj [ ("env", obj env) ]);
  let correct = failed = 0 && r.dense_errors = [] && mismatches = [] && finite in
  let metric (n, v, u) =
    let value = if Float.is_finite v then json_number v else "null" in
    (n, obj [ ("value", value); ("unit", json_string u) ])
  in
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", obj (List.map metric metrics));
       ])

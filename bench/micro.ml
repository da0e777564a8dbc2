(* B10: Bechamel micro-benchmarks for the moving parts of the pipeline:
   simulator speed, CFG extraction, path enumeration, the EM estimator and
   the placement pass. *)

open Bechamel
open Toolkit

let prepared_sense =
  lazy
    (let w = Workloads.sense in
     let c = Workloads.compiled w in
     let run =
       Codetomo.Pipeline.profile
         ~config:{ Codetomo.Pipeline.default_config with horizon = Some 1_000_000 }
         w
     in
     (w, c, run))

let test_simulator =
  Test.make ~name:"simulate 100 sense_task invocations"
    (Staged.stage (fun () ->
         let _, c, _ = Lazy.force prepared_sense in
         let devices = Mote_machine.Devices.create () in
         Mote_machine.Devices.set_sensor devices (fun _ -> 500);
         let m =
           Mote_machine.Machine.create ~program:c.Mote_lang.Compile.program ~devices ()
         in
         ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
         for _ = 1 to 100 do
           ignore (Mote_machine.Machine.run_proc m "sense_task")
         done))

let test_cfg =
  Test.make ~name:"CFG extraction (whole sense binary)"
    (Staged.stage (fun () ->
         let _, c, _ = Lazy.force prepared_sense in
         ignore (Cfgir.Cfg.of_program c.Mote_lang.Compile.program)))

let test_paths =
  Test.make ~name:"path enumeration (report_task)"
    (Staged.stage (fun () ->
         let _, _, run = Lazy.force prepared_sense in
         let model = Codetomo.Pipeline.model_of run "report_task" in
         ignore (Tomo.Paths.enumerate model)))

let test_em =
  Test.make ~name:"EM estimate (sense_task, 1000 samples)"
    (Staged.stage (fun () ->
         let _, _, run = Lazy.force prepared_sense in
         let samples = List.assoc "sense_task" run.Codetomo.Pipeline.samples in
         let samples =
           if Array.length samples > 1000 then Array.sub samples 0 1000 else samples
         in
         let model = Codetomo.Pipeline.model_of run "sense_task" in
         let paths = Tomo.Paths.enumerate model in
         ignore (Tomo.Em.estimate paths ~samples)))

(* The sparse-kernel benches run on ctp_rx_task — the grid's dominant cell
   (4096 raw paths merging to a couple hundred signatures). *)
let prepared_ctp =
  lazy
    (let w = Workloads.ctp in
     let run =
       Codetomo.Pipeline.profile
         ~config:{ Codetomo.Pipeline.default_config with timer_jitter = 4.0 }
         w
     in
     let samples = List.assoc "ctp_rx_task" run.Codetomo.Pipeline.samples in
     let model = Codetomo.Pipeline.model_of run "ctp_rx_task" in
     let paths = Tomo.Paths.enumerate model in
     (model, paths, samples))

let test_paths_merge =
  Test.make ~name:"path enumeration + merge (ctp_rx_task)"
    (Staged.stage (fun () ->
         let model, _, _ = Lazy.force prepared_ctp in
         ignore (Tomo.Paths.enumerate model)))

let test_em_sparse =
  Test.make ~name:"EM estimate, 3 iters (ctp_rx_task, jitter 4)"
    (Staged.stage (fun () ->
         let _, paths, samples = Lazy.force prepared_ctp in
         ignore
           (Tomo.Em.estimate ~max_iters:3 ~sigma:4.0 ~record_trajectory:false paths
              ~samples)))

let test_log_prior =
  Test.make ~name:"signature log-prior kernel (ctp_rx_task)"
    (Staged.stage (fun () ->
         let _, paths, _ = Lazy.force prepared_ctp in
         let model = Tomo.Paths.model paths in
         let theta = Array.map (fun _ -> 0.3) (Tomo.Model.uniform_theta model) in
         let log_t = Array.map log theta in
         let log_f = Array.map (fun t -> log (1.0 -. t)) theta in
         let out = Array.make (Tomo.Paths.num_signatures paths) 0.0 in
         Tomo.Paths.signature_log_prior paths ~log_t ~log_f out))

let test_online =
  Test.make ~name:"Online observe, 1000 obs (ctp_rx_task)"
    (Staged.stage (fun () ->
         let _, paths, samples = Lazy.force prepared_ctp in
         let online = Tomo.Online.create ~sigma:4.0 paths in
         Tomo.Online.observe_all online
           (Array.sub samples 0 (Stdlib.min 1000 (Array.length samples)))))

(* The robust variant over the field link (res 4, jitter 2), on the
   sanitized samples the hardened pipeline would feed it. *)
let prepared_ctp_field =
  lazy
    (let config =
       { Codetomo.Pipeline.default_config with
         timer_resolution = 4; timer_jitter = 2.0;
         faults = Some (Profilekit.Transport.field ()) }
     in
     let run = Codetomo.Pipeline.profile ~config Workloads.ctp in
     let paths = Tomo.Paths.enumerate (Codetomo.Pipeline.model_of run "ctp_rx_task") in
     let sigma = Codetomo.Pipeline.noise_sigma config in
     let samples, _ =
       Tomo.Sanitize.run ~min_cost:(Tomo.Paths.min_cost paths)
         ~max_cost:(Tomo.Paths.max_cost paths) ~sigma
         (List.assoc "ctp_rx_task" run.Codetomo.Pipeline.samples)
     in
     (paths, sigma, samples))

let test_em_robust =
  Test.make ~name:"robust EM, 3 iters (ctp_rx_task, field)"
    (Staged.stage (fun () ->
         let paths, sigma, samples = Lazy.force prepared_ctp_field in
         ignore
           (Tomo.Em.estimate ~max_iters:3 ~sigma ~outlier:Tomo.Em.default_outlier
              ~record_trajectory:false paths ~samples)))

let test_placement =
  Test.make ~name:"Pettis-Hansen + rewrite (sense)"
    (Staged.stage (fun () ->
         let _, c, run = Lazy.force prepared_sense in
         ignore
           (Layout.Rewrite.apply_all c.Mote_lang.Compile.program
              ~algorithm:Layout.Algorithms.pettis_hansen
              ~profiles:run.Codetomo.Pipeline.oracle_freqs)))

(* The simulate -> profile -> layout fast paths: a whole evaluation run of
   ctp's natural binary (scheduler + interpreter), a whole profiling run
   of filter (instrumented binary + branch oracle), and the exhaustive
   worst-layout search on filter_task (9 blocks, 8! candidates). *)
let prepared_filter =
  lazy
    (let w = Workloads.filter in
     let c = Workloads.compiled w in
     let run = Codetomo.Pipeline.profile ~compiled:c w in
     (w, c, List.assoc "filter_task" run.Codetomo.Pipeline.oracle_freqs))

let natural_ctp = lazy (Workloads.compiled Workloads.ctp).Mote_lang.Compile.program

let test_eval_run =
  Test.make ~name:"eval run, natural (ctp)"
    (Staged.stage (fun () ->
         ignore
           (Codetomo.Pipeline.run_binary Workloads.ctp (Lazy.force natural_ctp)
              ~label:"natural")))

let test_profile_run =
  Test.make ~name:"profile run (filter)"
    (Staged.stage (fun () ->
         let w, c, _ = Lazy.force prepared_filter in
         ignore (Codetomo.Pipeline.profile ~compiled:c w)))

let test_pessimal =
  Test.make ~name:"pessimal search (filter_task)"
    (Staged.stage (fun () ->
         let _, _, freq = Lazy.force prepared_filter in
         ignore (Layout.Algorithms.pessimal freq)))

let benchmark () =
  ignore (Lazy.force prepared_sense);
  ignore (Lazy.force prepared_ctp);
  ignore (Lazy.force prepared_ctp_field);
  ignore (Lazy.force prepared_filter);
  ignore (Lazy.force natural_ctp);
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let grouped =
    Test.make_grouped ~name:"codetomo"
      [
        test_simulator; test_cfg; test_paths; test_em; test_paths_merge;
        test_em_sparse; test_em_robust; test_online; test_log_prior; test_placement;
        test_eval_run; test_profile_run; test_pessimal;
      ]
  in
  let results = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  let lines = Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-55s %12.0f ns/run\n%!" name est
      | _ -> Printf.printf "  %-55s (no estimate)\n%!" name)
    (List.sort compare lines)

let b10 () =
  Experiments.section "B10. Micro-benchmarks (Bechamel, monotonic clock)";
  benchmark ()

(* Traced replay: the same jobs the timed loop ran, re-executed through
   each layer's public functions with a span around every call, so the
   job's wall time can be attributed to layers.  The place replay
   follows [Pipeline.compare_layouts] and the fleet replay follows
   [Fleet.Service.run] step for step; both must reproduce the timed
   run's outputs exactly, which [Jobs] fingerprints check. *)

module P = Codetomo.Pipeline
module S = Codetomo.Session
module Cfg = Cfgir.Cfg

type t = { tr : Trace.t; session : S.t; main : Domain.id }

let create session = { tr = Trace.create (); session; main = Domain.self () }
let add r = Trace.add r.tr
let span r = Trace.span r.tr

(* [Session.map_list] with every task timed; minor-heap words allocated
   on worker domains are added here, the calling domain's are read once
   around the whole replay. *)
let fanout r ~parent f xs =
  span r ~parent "pool" (fun id ->
      add r "pool.fanouts" 1.0;
      S.map_list r.session
        (fun x ->
          let t0 = Trace.now () and w0 = Gc.minor_words () in
          let y = f ~parent:id x in
          add r "pool.task_s" (Trace.now () -. t0);
          if Domain.self () <> r.main then
            add r "gc.worker_minor_words" (Gc.minor_words () -. w0);
          y)
        xs)

let enumerate r ~parent w proc model =
  span r ~parent "paths" (fun _ ->
      let hit = ref true in
      let p =
        S.paths_cache r.session w proc (fun () ->
            hit := false;
            Tomo.Paths.enumerate model)
      in
      if !hit then add r "paths.cache_hits" 1.0;
      add r "paths.raw" (float_of_int (Array.length (Tomo.Paths.paths p)));
      add r "paths.signatures" (float_of_int (Tomo.Paths.num_signatures p));
      p)

(* {1 Setup}: the same work [Jobs.warm] does, one span per call. *)
let setup r =
  List.iter
    (fun (w : Workloads.t) ->
      let compiled = span r ~parent:Trace.root "compile" (fun _ -> S.compiled r.session w) in
      let binary = Jobs.instrumented compiled in
      List.iter
        (fun proc ->
          ignore
            (enumerate r ~parent:Trace.root w proc
               (Tomo.Model.of_cfg (Cfg.of_proc_name binary proc))))
        w.Workloads.profiled)
    Workloads.all

let health r (h : Tomo.Health.t) =
  add r "health.verdicts" 1.0;
  if Tomo.Health.is_healthy h then add r "health.healthy" 1.0;
  if Tomo.Health.is_rejected h then add r "health.rejected" 1.0

(* {1 Place job}: [Pipeline.profile] + the body of
   [Pipeline.compare_layouts] at its default knobs. *)

let estimate_proc r ~parent (c : Jobs.place_cell) (run : P.profile_run) proc =
  let w = c.Jobs.workload in
  let sigma = P.noise_sigma run.P.config in
  let model = P.model_of run proc in
  let paths = enumerate r ~parent w proc model in
  let samples, sanitize_report =
    match Jobs.sanitize c with
    | None -> (List.assoc proc run.P.samples, None)
    | Some config ->
        span r ~parent "sanitize" (fun _ ->
            let kept, report =
              Tomo.Sanitize.run ~config ~min_cost:(Tomo.Paths.min_cost paths)
                ~max_cost:(Tomo.Paths.max_cost paths) ~sigma (List.assoc proc run.P.samples)
            in
            add r "sanitize.total" (float_of_int report.Tomo.Sanitize.total);
            add r "sanitize.quarantined" (float_of_int (report.total - report.kept));
            (kept, Some report))
  in
  let n = Array.length samples in
  let estimate, verdict =
    if n < 1 then
      ( Tomo.Estimator.fallback model,
        Tomo.Health.judge ~min_samples:1 ~converged:true ~sample_count:n () )
    else
      let outlier = Jobs.outlier c in
      let layer = if Option.is_some outlier then "em_robust" else "em" in
      let e =
        span r ~parent layer (fun _ ->
            let a0 = Gc.allocated_bytes () in
            let e =
              Tomo.Estimator.run ~method_:Tomo.Estimator.Em ~noise_sigma:sigma ~paths
                ?outlier model ~samples
            in
            add r (layer ^ ".alloc_words") ((Gc.allocated_bytes () -. a0) /. 8.0);
            e)
      in
      let distinct = Array.length (Tomo.Em.group_samples samples) in
      let iters = e.Tomo.Estimator.iterations in
      add r (layer ^ ".iterations") (float_of_int iters);
      add r (layer ^ ".distinct_values") (float_of_int distinct);
      add r (layer ^ ".estep_cells")
        (float_of_int (iters * distinct * Tomo.Paths.num_signatures paths));
      if not e.converged then add r (layer ^ ".unconverged") 1.0;
      (e, Tomo.Health.judge ~min_samples:1 ~converged:e.converged ~sample_count:n ())
  in
  health r verdict;
  let truth = List.assoc proc run.P.oracle_thetas in
  let mae =
    if Array.length truth = 0 then 0.0 else Stats.Metrics.mae estimate.Tomo.Estimator.theta truth
  in
  { P.proc; estimate; truth; mae; sample_count = n; health = verdict; sanitize_report }

let place r (c : Jobs.place_cell) ~seed ~parent =
  let w = c.Jobs.workload in
  let run =
    span r ~parent "profile" (fun _ ->
        P.profile ~config:(Jobs.place_config c ~seed) ~compiled:(S.compiled r.session w) w)
  in
  add r "profile.cycles" (float_of_int run.P.node_stats.Mote_os.Node.total_cycles);
  let estimations =
    fanout r ~parent (fun ~parent -> estimate_proc r ~parent c run) w.Workloads.profiled
  in
  let binaries =
    span r ~parent "layout" (fun _ ->
        let usable, fallbacks =
          List.partition (fun e -> not (Tomo.Health.is_rejected e.P.health)) estimations
        in
        let tomo_label =
          match fallbacks with
          | [] -> "tomography"
          | fs -> Printf.sprintf "tomography[%d fallback]" (List.length fs)
        in
        let placed profiles =
          P.placed_binary run ~profiles ~algorithm:Layout.Algorithms.pettis_hansen
        in
        [
          ("natural", P.natural_binary run);
          ("worst", P.worst_binary run);
          (tomo_label, placed (P.estimated_freqs run usable));
          ("perfect", placed run.P.oracle_freqs);
        ])
  in
  let eval_config = { run.P.config with P.seed = run.P.config.P.seed + 1000 } in
  let variants =
    fanout r ~parent
      (fun ~parent (label, binary) ->
        span r ~parent "eval" (fun _ ->
            let v = P.run_binary ~config:eval_config w binary ~label in
            add r "eval.cycles" (float_of_int (v.P.busy_cycles + v.P.idle_cycles));
            v))
      binaries
  in
  (variants, estimations)

(* {1 Fleet job}: [Fleet.Service.run] at [replace_every = 0]. *)

(* The fleet's ground truth, as [Fleet.Service] pools it. *)
let pooled_oracle procs (node_runs : Fleet.Sim.node_run list) =
  List.map
    (fun proc ->
      let votes =
        List.map
          (fun (nr : Fleet.Sim.node_run) ->
            ( List.assoc proc nr.Fleet.Sim.oracle_thetas,
              float_of_int (List.assoc proc nr.Fleet.Sim.clean_samples) ))
          node_runs
      in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 votes in
      let k = match votes with (theta, _) :: _ -> Array.length theta | [] -> 0 in
      let acc = Array.make k 0.0 in
      (if total > 0.0 then
         List.iter
           (fun (theta, w) ->
             Array.iteri (fun j v -> acc.(j) <- acc.(j) +. (w *. v /. total)) theta)
           votes
       else
         let n = float_of_int (Stdlib.max 1 (List.length votes)) in
         List.iter
           (fun (theta, _) -> Array.iteri (fun j v -> acc.(j) <- acc.(j) +. (v /. n)) theta)
           votes);
      (proc, acc))
    procs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let fleet r (c : Jobs.fleet_cell) ~seed ~parent =
  let config = Jobs.fleet_config c ~seed in
  let w = c.Jobs.fleet_workload in
  let procs = w.Workloads.profiled in
  let compiled = S.compiled r.session w in
  let original = compiled.Mote_lang.Compile.program in
  let instrumented, paths =
    span r ~parent "instrument" (fun _ ->
        let instrumented = Jobs.instrumented compiled in
        ( instrumented,
          List.map
            (fun proc ->
              let model = Tomo.Model.of_cfg (Cfg.of_proc_name instrumented proc) in
              (proc, enumerate r ~parent w proc model))
            procs ))
  in
  let pipeline = config.Fleet.Service.pipeline in
  let sigma = P.noise_sigma pipeline in
  let roster =
    Fleet.Sim.plan ~seed:config.seed ~nodes:config.nodes ~faults:config.faults
      ~vary_faults:config.vary_faults
  in
  let node_runs =
    fanout r ~parent
      (fun ~parent node ->
        span r ~parent "fleetsim.run_node" (fun _ ->
            Fleet.Sim.run_node ~workload:w ~instrumented ~config:pipeline node))
      roster
  in
  let states =
    span r ~parent "ingest" (fun _ ->
        List.map
          (fun (nr : Fleet.Sim.node_run) ->
            let batch =
              match config.batch with
              | Some b -> b
              | None -> Fleet.Sim.default_batch nr ~rounds:config.rounds
            in
            ( nr,
              batch,
              Fleet.Ingest.create ~node:nr.Fleet.Sim.node ~program:instrumented
                ~resolution:pipeline.P.timer_resolution ~sigma ~decay:config.decay ~procs:paths ))
          node_runs)
  in
  let oracle = pooled_oracle procs node_runs in
  let min_samples = Stdlib.max 1 config.min_samples in
  let fuse_all () =
    span r ~parent "fusion" (fun _ ->
        List.map
          (fun proc ->
            let fu =
              Fleet.Fusion.fuse
                (List.map
                   (fun (_, _, ing) -> Fleet.Ingest.fusion_input ing ~min_samples proc)
                   states)
            in
            add r "fusion.admitted" (float_of_int fu.Fleet.Fusion.admitted);
            add r "fusion.rejected" (float_of_int fu.Fleet.Fusion.rejected);
            (proc, fu))
          procs)
  in
  let fused_mae fusions =
    mean
      (List.map
         (fun (proc, (fu : Fleet.Fusion.result)) ->
           let truth = List.assoc proc oracle in
           if Array.length truth = 0 then 0.0
           else
             let theta =
               match fu.Fleet.Fusion.fused with
               | Some t -> t
               | None -> Array.make (Array.length truth) 0.5
             in
             Stats.Metrics.mae theta truth)
         fusions)
  in
  let eval_fleet binary ~label =
    fanout r ~parent
      (fun ~parent (nr : Fleet.Sim.node_run) ->
        span r ~parent "eval" (fun _ ->
            let seed = nr.Fleet.Sim.node.Fleet.Sim.env_seed + 1000 in
            let cfg = { pipeline with P.seed; faults = None } in
            let v = P.run_binary ~config:cfg w binary ~label in
            add r "eval.cycles" (float_of_int (v.P.busy_cycles + v.P.idle_cycles));
            v.P.taken_transfers))
      node_runs
    |> List.fold_left ( + ) 0
  in
  let place ~at_round fusions =
    let label, fallbacks, binary =
      span r ~parent "layout" (fun _ ->
          let profiles, fallbacks =
            List.fold_left
              (fun (profiles, fallbacks) (proc, (fu : Fleet.Fusion.result)) ->
                match fu.Fleet.Fusion.fused with
                | None -> (profiles, fallbacks + 1)
                | Some theta ->
                    let model =
                      Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0
                        (Cfg.of_proc_name original proc)
                    in
                    let invocations =
                      float_of_int
                        (List.fold_left
                           (fun acc (_, _, ing) -> acc + Fleet.Ingest.fed ing proc)
                           0 states)
                    in
                    let freq = Tomo.Model.freq_of_theta model ~theta ~invocations in
                    ((proc, freq) :: profiles, fallbacks))
              ([], 0) fusions
          in
          let label =
            if fallbacks = 0 then "fleet-tomography"
            else Printf.sprintf "fleet-tomography[%d fallback]" fallbacks
          in
          ( label,
            fallbacks,
            Layout.Rewrite.apply_all original ~algorithm:Layout.Algorithms.pettis_hansen
              ~profiles:(List.rev profiles) ))
    in
    let natural_taken = eval_fleet original ~label:"natural" in
    let placed_taken = eval_fleet binary ~label in
    {
      Fleet.Service.at_round;
      label;
      natural_taken;
      placed_taken;
      reduction =
        (if natural_taken = 0 then 0.0
         else 1.0 -. (float_of_int placed_taken /. float_of_int natural_taken));
      fallbacks;
    }
  in
  let round_reports =
    List.init config.rounds (fun i ->
        let round = i + 1 in
        ignore
          (fanout r ~parent
             (fun ~parent (nr, batch, ing) ->
               let b =
                 span r ~parent "fleetsim.batch" (fun _ ->
                     fst (Fleet.Sim.batch nr ~batch ~round:(round - 1)))
               in
               add r "fleetsim.wire_bytes" (float_of_int (String.length b));
               span r ~parent "ingest" (fun _ ->
                   let d0 = Fleet.Ingest.delivered ing and f0 = Fleet.Ingest.total_fed ing in
                   Fleet.Ingest.ingest ing b;
                   add r "ingest.records" (float_of_int (Fleet.Ingest.delivered ing - d0));
                   add r "ingest.windows_fed" (float_of_int (Fleet.Ingest.total_fed ing - f0))))
             states);
        let fusions = fuse_all () in
        let placement =
          if round = config.rounds then Some (place ~at_round:round fusions) else None
        in
        let admitted, rejected =
          List.fold_left
            (fun (a, x) (_, (fu : Fleet.Fusion.result)) ->
              (a + fu.Fleet.Fusion.admitted, x + fu.Fleet.Fusion.rejected))
            (0, 0) fusions
        in
        let total f = List.fold_left (fun acc (_, _, ing) -> acc + f ing) 0 states in
        {
          Fleet.Service.round;
          delivered = total Fleet.Ingest.delivered;
          fed = total Fleet.Ingest.total_fed;
          discarded = total Fleet.Ingest.discarded;
          admitted;
          rejected;
          fused_mae = fused_mae fusions;
          placement;
        })
  in
  let fusions = fuse_all () in
  let drift =
    List.map
      (fun proc ->
        let p = List.assoc proc paths in
        let per_node =
          fanout r ~parent
            (fun ~parent (_, _, ing) ->
              span r ~parent "windowed" (fun _ ->
                  let samples = Fleet.Ingest.samples ing proc in
                  let n = Array.length samples in
                  let window_size = Stdlib.max 20 (n / 4) in
                  if n < Stdlib.max 1 (window_size / 2) then 0.0
                  else
                    (Tomo.Windowed.estimate ~window_size ~sigma p ~samples)
                      .Tomo.Windowed.max_drift))
            states
        in
        (proc, List.fold_left Stdlib.max 0.0 per_node))
      procs
  in
  let health_list =
    List.map
      (fun (_, _, ing) ->
        ( (Fleet.Ingest.node ing).Fleet.Sim.id,
          List.map
            (fun proc ->
              let h = (Fleet.Ingest.fusion_input ing ~min_samples proc).Fleet.Fusion.health in
              health r h;
              (proc, h))
            procs ))
      states
  in
  let final =
    match List.rev round_reports with
    | { Fleet.Service.placement = Some p; _ } :: _ -> p
    | _ -> assert false
  in
  {
    Fleet.Service.roster;
    round_reports;
    final;
    fused =
      List.map (fun (proc, (fu : Fleet.Fusion.result)) -> (proc, fu.Fleet.Fusion.fused)) fusions;
    pooled_oracle = oracle;
    health = health_list;
    drift;
  }

(* One traced job; returns its fingerprint for comparison with the
   untraced run. *)
let job r cell ~seed =
  span r ~parent:Trace.root "job" (fun parent ->
      match cell with
      | Jobs.Place c ->
          let variants, estimations = place r c ~seed ~parent in
          let check = Jobs.check_place c.workload variants estimations in
          (Jobs.place_fingerprint variants estimations, check.errors)
      | Jobs.Fleet c ->
          let report = fleet r c ~seed ~parent in
          (Jobs.fleet_fingerprint report, Jobs.check_fleet c report))

(* {1 Per-layer metrics}, in the order BENCHMARK.json lists them. *)
let metrics r ~domains ~untraced_s ~minor_words ~major_collections =
  let sum = Trace.summary r.tr in
  let calls name = let c, _, _ = sum name in float_of_int c in
  let self name = let _, _, s = sum name in s in
  let wall name = let _, d, _ = sum name in d in
  let n = Trace.count r.tr in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let traced_s = wall "job" in
  let em prefix =
    [
      (prefix ^ ".calls", calls prefix, "count");
      (prefix ^ ".self_s", self prefix, "s");
      (prefix ^ ".iterations", n (prefix ^ ".iterations"), "count");
      (prefix ^ ".unconverged", n (prefix ^ ".unconverged"), "count");
    ]
  in
  [
    ("compile.calls", calls "compile", "count");
    ("compile.self_s", self "compile", "s");
    ("profile.calls", calls "profile", "count");
    ("profile.self_s", self "profile", "s");
    ("profile.mcycles", n "profile.cycles" /. 1e6, "Mcycles");
    ("profile.mcycles_per_s", ratio (n "profile.cycles" /. 1e6) (self "profile"), "Mcycles/s");
    ("paths.calls", calls "paths", "count");
    ("paths.self_s", self "paths", "s");
    ("paths.cache_hits", n "paths.cache_hits", "count");
    ("paths.raw", n "paths.raw", "count");
    ("paths.signatures", n "paths.signatures", "count");
    ("sanitize.calls", calls "sanitize", "count");
    ("sanitize.self_s", self "sanitize", "s");
    ( "sanitize.quarantined_ratio",
      ratio (n "sanitize.quarantined") (n "sanitize.total"),
      "fraction" );
  ]
  @ em "em"
  @ [
      ("em.distinct_values", n "em.distinct_values", "count");
      ("em.estep_cells", n "em.estep_cells", "count");
      ("em.alloc_mwords", n "em.alloc_words" /. 1e6, "Mwords");
    ]
  @ em "em_robust"
  @ [
      ("em_robust.estep_cells", n "em_robust.estep_cells", "count");
      ("health.healthy_ratio", ratio (n "health.healthy") (n "health.verdicts"), "fraction");
      ("health.rejected", n "health.rejected", "count");
      ("layout.calls", calls "layout", "count");
      ("layout.self_s", self "layout", "s");
      ("eval.calls", calls "eval", "count");
      ("eval.self_s", self "eval", "s");
      ("eval.mcycles_per_s", ratio (n "eval.cycles" /. 1e6) (self "eval"), "Mcycles/s");
      ("fleetsim.run_node_s", self "fleetsim.run_node", "s");
      ("fleetsim.batch_s", self "fleetsim.batch", "s");
      ("fleetsim.wire_bytes", n "fleetsim.wire_bytes", "bytes");
      ("ingest.calls", calls "ingest", "count");
      ("ingest.self_s", self "ingest", "s");
      ("ingest.records", n "ingest.records", "count");
      ("ingest.windows_fed", n "ingest.windows_fed", "count");
      ("ingest.windows_per_s", ratio (n "ingest.windows_fed") (self "ingest"), "1/s");
      ("fusion.calls", calls "fusion", "count");
      ("fusion.self_s", self "fusion", "s");
      ("fusion.admitted", n "fusion.admitted", "count");
      ("fusion.rejected", n "fusion.rejected", "count");
      ("pool.domains", float_of_int domains, "count");
      ("pool.fanouts", n "pool.fanouts", "count");
      ("pool.wall_s", wall "pool", "s");
      ("pool.task_s", n "pool.task_s", "s");
      ( "pool.efficiency",
        ratio (n "pool.task_s") (wall "pool" *. float_of_int domains),
        "fraction" );
      ("gc.minor_mwords", (minor_words +. n "gc.worker_minor_words") /. 1e6, "Mwords");
      ("gc.major_collections", major_collections, "count");
      ("replay.jobs", calls "job", "count");
      ("replay.coverage", Trace.coverage r.tr ~root_name:"job", "fraction");
      ("replay.overhead", ratio traced_s untraced_s -. 1.0, "fraction");
    ]

(* The benchmark's workloads and jobs, run through the public API exactly
   as a user would run them, plus the output check every job must pass
   and the placement-quality sums the end-to-end metrics are built from. *)

module P = Codetomo.Pipeline
module S = Codetomo.Session
module Cfg = Cfgir.Cfg

type place_cell = { workload : Workloads.t; resolution : int; jitter : float; lossy : bool }

type fleet_cell = {
  fleet_workload : Workloads.t;
  nodes : int;
  rounds : int;
  horizon : int option;
}

type cell = Place of place_cell | Fleet of fleet_cell

type spec = {
  name : string;
  cells : cell array;  (** One cycle; the timed loop runs whole cycles. *)
  quality_cycles : int;
      (** Cycles the quality metrics cover — a fixed job set, so they
          depend on the seed and nothing else. *)
  replay_cycles : int;  (** Cycles the traced replay covers; at most [quality_cycles]. *)
}

let cell_label = function
  | Place c ->
      Printf.sprintf "%s r%d j%g%s" c.workload.Workloads.name c.resolution c.jitter
        (if c.lossy then " field" else "")
  | Fleet c ->
      Printf.sprintf "fleet %s %dx%d" c.fleet_workload.Workloads.name c.nodes c.rounds

(* The noisy grid, ordered so the expensive ctp cells are spread through
   the cycle rather than bunched at its end. *)
let noisy_grid ~lossy =
  List.concat_map
    (fun (resolution, jitter) ->
      List.map
        (fun workload -> Place { workload; resolution; jitter; lossy })
        Workloads.[ sense; filter; ctp ])
    [ (1, 2.0); (16, 8.0); (4, 2.0); (1, 8.0); (16, 2.0); (4, 8.0) ]

let specs =
  [
    {
      name = "place-clean";
      cells =
        Array.of_list
          (List.map
             (fun workload -> Place { workload; resolution = 1; jitter = 0.0; lossy = false })
             Workloads.all);
      quality_cycles = 18;
      replay_cycles = 10;
    };
    {
      name = "place-noisy";
      cells = Array.of_list (noisy_grid ~lossy:false);
      (* Seven cycles put the tail's rank (11th-slowest) in the middle
         of the seven resolution-4/jitter-8 ctp jobs (ranks 8-14, after
         the seven resolution-1/jitter-8 ones).  A single job's wall time
         can differ by half between runs of the same seed, so the middle
         of a group is steadier than its edge. *)
      quality_cycles = 7;
      replay_cycles = 1;
    };
    {
      name = "place-lossy";
      cells = Array.of_list (noisy_grid ~lossy:true);
      quality_cycles = 6;
      replay_cycles = 1;
    };
    {
      name = "fleet-field";
      cells =
        Array.of_list
          (List.map
             (fun (w, nodes, rounds, horizon) ->
               Fleet { fleet_workload = w; nodes; rounds; horizon })
             Workloads.
               [
                 (filter, 8, 10, None);
                 (monitor, 8, 10, None);
                 (sense, 8, 10, None);
                 (ctp, 2, 5, Some 1_000_000);
               ]);
      quality_cycles = 16;
      replay_cycles = 2;
    };
  ]

let find_spec name = List.find_opt (fun s -> String.equal s.name name) specs

(* Every job gets a profiling/campaign seed of its own, so no Session
   estimate or comparison memo entry is ever reused — only the compile
   and path-set caches are, as in production. *)
let job_seed ~seed index = (abs seed * 100_003) + index

(* {1 Setup} *)

let instrumented (compiled : Mote_lang.Compile.t) =
  Mote_isa.Asm.assemble (Profilekit.Probes.instrument compiled.Mote_lang.Compile.items)

(* Compile every workload and enumerate every profiled procedure's path
   set into the session's caches, under the keys the pipeline and the
   fleet service read them back with. *)
let warm session =
  List.iter
    (fun (w : Workloads.t) ->
      let binary = instrumented (S.compiled session w) in
      List.iter
        (fun proc ->
          ignore
            (S.paths_cache session w proc (fun () ->
                 Tomo.Paths.enumerate (Tomo.Model.of_cfg (Cfg.of_proc_name binary proc)))))
        w.Workloads.profiled)
    Workloads.all

(* {1 Jobs} *)

let place_config c ~seed =
  {
    P.default_config with
    seed;
    timer_resolution = c.resolution;
    timer_jitter = c.jitter;
    faults = (if c.lossy then Some (Profilekit.Transport.field ()) else None);
  }

(* [ctomo place --field --sanitize --robust] on a lossy cell. *)
let sanitize c = if c.lossy then Some Tomo.Sanitize.default else None
let outlier c = if c.lossy then Some Tomo.Em.default_outlier else None

let place_job session c ~seed =
  let w = c.workload in
  let run = P.profile ~config:(place_config c ~seed) ~compiled:(S.compiled session w) w in
  let variants =
    P.compare_layouts ~ctx:(S.ctx session w) ?sanitize:(sanitize c) ?outlier:(outlier c) run
  in
  (run, variants)

(* The estimations [compare_layouts] placed from, recomputed outside the
   timed job for the θ check and the MAE. *)
let place_estimates session c run =
  P.estimate ~ctx:(S.ctx session c.workload) ?sanitize:(sanitize c) ?outlier:(outlier c) run

let fleet_config c ~seed =
  let base = Fleet.Service.default_config c.fleet_workload in
  {
    base with
    Fleet.Service.nodes = c.nodes;
    rounds = c.rounds;
    seed;
    faults = Profilekit.Transport.field ();
    pipeline = { P.default_config with horizon = c.horizon };
  }

let fleet_job session c ~seed = Fleet.Service.run ~session (fleet_config c ~seed)

(* The fleet's perfect-profile reference: placement from the pooled
   oracle θ, evaluated on every node's own evaluation inputs exactly as
   the service evaluates its fused placement. *)
let fleet_perfect_taken session c ~seed (report : Fleet.Service.report) =
  let w = c.fleet_workload in
  let original = (S.compiled session w).Mote_lang.Compile.program in
  let profiles =
    List.map
      (fun (proc, theta) ->
        let model =
          Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0
            (Cfg.of_proc_name original proc)
        in
        (proc, Tomo.Model.freq_of_theta model ~theta ~invocations:1.0))
      report.Fleet.Service.pooled_oracle
  in
  let binary =
    Layout.Rewrite.apply_all original ~algorithm:Layout.Algorithms.pettis_hansen ~profiles
  in
  let pipeline = (fleet_config c ~seed).Fleet.Service.pipeline in
  S.map_list session
    (fun (node : Fleet.Sim.node) ->
      let config = { pipeline with P.seed = node.Fleet.Sim.env_seed + 1000; faults = None } in
      (P.run_binary ~config w binary ~label:"perfect").P.taken_transfers)
    report.Fleet.Service.roster
  |> List.fold_left ( + ) 0

(* {1 Output check}

   Only properties that hold at every seed: layout-invariant counters
   agree across the four variants, and every θ is a probability vector
   of the oracle's arity.  Tomography ≤ natural, tomography = perfect
   and EM convergence do not hold in general and are not asserted.

   Two effects make the counters layout-dependent, and the check keeps
   only what survives them:

   - Horizon cut.  Tasks run to completion and an evaluation run stops
     at the first task boundary past its horizon, so a faster layout can
     finish one more task (a task invocation is a return without a
     call).  When the task counts differ, the variant that ran more
     tasks must be ahead on every counter.
   - Delivery order.  [Mote_os.Node] posts every due timer task before
     every due radio task, not in time order, so when a layout delays a
     task past both a radio arrival and a timer tick the next two tasks
     swap.  On a workload that mixes radio- and timer-driven tasks (ctp:
     the beacon's backoff loop reads state the receive task updates)
     this moves a few conditional branches and instructions while tasks,
     calls and radio words stay equal.  There, differences in those two
     counters are counted as reordered comparisons rather than
     failures. *)

let theta_ok ~arity theta =
  Array.length theta = arity
  && Array.for_all (fun x -> Float.is_finite x && x >= 0.0 && x <= 1.0) theta

let invariants (v : P.variant) =
  let st = v.P.stats in
  Mote_machine.Machine.
    [
      ("tx_words", v.P.tx_words);
      ("cond_branches", st.cond_branches);
      ("calls", st.calls);
      ("returns", st.returns);
      ("instructions-jumps", st.instructions - st.unconditional_transfers);
    ]

let tasks (v : P.variant) = v.P.stats.Mote_machine.Machine.returns - v.P.stats.calls
let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let find_variant variants prefix =
  List.find_opt (fun (v : P.variant) -> has_prefix prefix v.P.label) variants

let mixes_radio_and_timer (w : Workloads.t) =
  let radio (t : Mote_os.Node.task) = t.Mote_os.Node.source = Mote_os.Node.On_radio_rx in
  List.exists radio w.Workloads.tasks && not (List.for_all radio w.tasks)

type check = { errors : string list; horizon_cuts : int; reordered : int }

let check_place (w : Workloads.t) variants estimations =
  let errors = ref [] and cuts = ref 0 and reordered = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let order_dependent counter =
    mixes_radio_and_timer w && (counter = "cond_branches" || counter = "instructions-jumps")
  in
  (match find_variant variants "natural" with
  | None -> fail "no natural variant"
  | Some natural ->
      List.iter
        (fun prefix ->
          match find_variant variants prefix with
          | None -> fail "no %s variant" prefix
          | Some v ->
              let dt = tasks v - tasks natural in
              if dt <> 0 then incr cuts;
              let moved = ref false in
              List.iter2
                (fun (counter, want) (_, got) ->
                  let ok = if dt = 0 then got = want else compare got want * dt >= 0 in
                  if not ok then
                    if order_dependent counter then moved := true
                    else fail "%s: %s %d vs natural %d (%+d tasks)" v.P.label counter got want dt)
                (invariants natural) (invariants v);
              if !moved then incr reordered)
        [ "worst"; "tomography"; "perfect" ]);
  List.iter
    (fun (e : P.estimation) ->
      if not (theta_ok ~arity:(Array.length e.P.truth) e.P.estimate.Tomo.Estimator.theta)
      then fail "%s: theta is not a probability vector of the oracle's arity" e.P.proc)
    estimations;
  { errors = List.rev !errors; horizon_cuts = !cuts; reordered = !reordered }

let check_fleet (c : fleet_cell) (r : Fleet.Service.report) =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let procs = c.fleet_workload.Workloads.profiled in
  List.iter
    (fun proc ->
      match (List.assoc_opt proc r.Fleet.Service.pooled_oracle, List.assoc_opt proc r.fused) with
      | Some truth, Some (Some theta) ->
          if not (theta_ok ~arity:(Array.length truth) theta) then
            fail "%s: fused theta is not a probability vector of the oracle's arity" proc
      | Some _, Some None -> ()
      | _ -> fail "%s: missing from the report" proc)
    procs;
  if List.length r.roster <> c.nodes || List.length r.health <> c.nodes then
    fail "roster/health do not cover %d nodes" c.nodes;
  if List.length r.round_reports <> c.rounds then fail "expected %d round reports" c.rounds;
  List.iter
    (fun (rr : Fleet.Service.round_report) ->
      if not (Float.is_finite rr.fused_mae && rr.fused_mae >= 0.0 && rr.fused_mae <= 1.0) then
        fail "round %d: fused MAE %g out of range" rr.round rr.fused_mae)
    r.round_reports;
  if r.final.natural_taken <= 0 || r.final.placed_taken <= 0 then
    fail "final placement evaluated no taken transfers";
  List.rev !errors

(* {1 Outputs}

   A job's outcome reduced to what the quality metrics need, plus a
   canonical fingerprint (floats in hex) the traced replay and the
   determinism self-check compare. *)

type outcome = {
  natural : int;
  tomography : int;
  perfect : int;
  mae_sum : float;
  mae_count : int;
  horizon_cuts : int;  (** Variant comparisons cut by the horizon. *)
  reordered : int;  (** Variant comparisons with swapped task delivery. *)
  fingerprint : string;
}

let hex_floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))

let place_fingerprint variants estimations =
  String.concat ";"
    (List.map
       (fun (v : P.variant) ->
         Printf.sprintf "%s:%d:%d:%d" v.P.label v.P.taken_transfers
           v.P.stats.Mote_machine.Machine.instructions v.P.busy_cycles)
       variants
    @ List.map
        (fun (e : P.estimation) -> e.P.proc ^ "=" ^ hex_floats e.P.estimate.theta)
        estimations)

let taken_of variants prefix =
  match find_variant variants prefix with Some v -> v.P.taken_transfers | None -> 0

let place_outcome variants estimations (c : check) =
  {
    horizon_cuts = c.horizon_cuts;
    reordered = c.reordered;
    natural = taken_of variants "natural";
    tomography = taken_of variants "tomography";
    perfect = taken_of variants "perfect";
    mae_sum = List.fold_left (fun acc (e : P.estimation) -> acc +. e.P.mae) 0.0 estimations;
    mae_count = List.length estimations;
    fingerprint = place_fingerprint variants estimations;
  }

let final_mae (r : Fleet.Service.report) =
  match List.rev r.round_reports with rr :: _ -> rr.Fleet.Service.fused_mae | [] -> nan

let fleet_fingerprint (r : Fleet.Service.report) =
  String.concat ";"
    (Printf.sprintf "%s:%d:%d:%h" r.final.label r.final.natural_taken r.final.placed_taken
       (final_mae r)
    :: List.map
         (fun (proc, theta) ->
           proc ^ "=" ^ match theta with None -> "none" | Some t -> hex_floats t)
         r.fused)

let fleet_outcome (r : Fleet.Service.report) ~perfect =
  {
    natural = r.final.natural_taken;
    tomography = r.final.placed_taken;
    perfect;
    mae_sum = final_mae r;
    mae_count = 1;
    horizon_cuts = 0;
    reordered = 0;
    fingerprint = fleet_fingerprint r;
  }

(* Run one job, check included: [timer.timed] wraps exactly the work a
   user waits for; the check and the quality inputs are computed
   outside it. *)
type timer = { timed : 'a. (unit -> 'a) -> 'a }

let run_cell session cell ~seed ~timer =
  match cell with
  | Place c ->
      let run, variants = timer.timed (fun () -> place_job session c ~seed) in
      let estimations = place_estimates session c run in
      let check = check_place c.workload variants estimations in
      (check.errors, place_outcome variants estimations check)
  | Fleet c ->
      let report = timer.timed (fun () -> fleet_job session c ~seed) in
      let perfect = fleet_perfect_taken session c ~seed report in
      (check_fleet c report, fleet_outcome report ~perfect)

(* {1 Quality metrics} over a list of outcomes. *)

type quality = { taken_reduction : float; perfect_recovery : float; theta_mae : float }

let quality outcomes =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let natural = float_of_int (sum (fun o -> o.natural))
  and tomo = float_of_int (sum (fun o -> o.tomography))
  and perfect = float_of_int (sum (fun o -> o.perfect)) in
  let mae_sum = List.fold_left (fun acc o -> acc +. o.mae_sum) 0.0 outcomes in
  {
    taken_reduction = 1.0 -. (tomo /. natural);
    perfect_recovery = (natural -. tomo) /. (natural -. perfect);
    theta_mae = mae_sum /. float_of_int (sum (fun o -> o.mae_count));
  }

(* {1 Exact-kernel oracle}

   The sparse EM kernel must equal the dense reference bit for bit.  Run
   once per benchmark run, outside the timed loop, on a cheap exact-path
   cell (filter at resolution 4, jitter 2). *)
let dense_check session ~seed =
  let w = Workloads.filter in
  let c = { workload = w; resolution = 4; jitter = 2.0; lossy = false } in
  let run = P.profile ~config:(place_config c ~seed) ~compiled:(S.compiled session w) w in
  let sigma = P.noise_sigma run.P.config in
  List.filter_map
    (fun proc ->
      let samples = List.assoc proc run.P.samples in
      let paths =
        S.paths_cache session w proc (fun () -> Tomo.Paths.enumerate (P.model_of run proc))
      in
      let show (r : Tomo.Em.result) =
        Printf.sprintf "%s|%h|%h|%d|%b" (hex_floats r.Tomo.Em.theta) r.sigma r.log_likelihood
          r.iterations r.converged
      in
      let sparse = show (Tomo.Em.estimate ~sigma ~record_trajectory:false paths ~samples) in
      let dense = show (Tomo.Em.Dense.estimate ~sigma ~record_trajectory:false paths ~samples) in
      if String.equal sparse dense then None
      else Some (Printf.sprintf "dense check %s: sparse %s <> dense %s" proc sparse dense))
    w.Workloads.profiled

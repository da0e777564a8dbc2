(** The five differential oracles of the fuzzing harness.

    Every oracle runs one generated program through two pipelines that the
    design says must agree, and reports where they do not:

    + {!optimize}: {!Mote_lang.Optimize} on vs. off — identical observable
      machine state and device traces;
    + {!rewrite}: {!Layout.Rewrite} under random placements — identical
      observables, identical layout-invariant statistics (only taken
      counts and bridging jumps may change), identical per-procedure probe
      sample counts;
    + {!em_agreement}: sparse {!Tomo.Em.estimate} vs. the dense reference
      {!Tomo.Em.Dense.estimate} — hex-float equality on every field of the
      result, trajectory included — and {!Tomo.Online} vs. a dense
      per-path online update on the same samples (decay 0.999 and 1.0,
      σ from the EM fit), hex-float equality on θ and the evidence
      weight;
    + {!convergence}: estimated branch probabilities approach
      {!Markov.Walk} ground-truth frequencies as the sample count grows;
    + {!faults}: under a random bounded fault mix on the probe link, the
      transport is deterministic and well-accounted, lossy collection and
      the sanitized robust estimator never raise, health verdicts obey the
      sample floor, and no [Rejected] procedure is touched by placement.

    Verdicts distinguish {!Skip} (the case structurally carries no signal
    for this oracle) from {!Fail} (a real disagreement, message included). *)

type verdict = Pass | Skip of string | Fail of string

type params = {
  invocations : int;  (** Task invocations per differential run. *)
  placement_rounds : int;  (** Random placements tried by {!rewrite}. *)
  em_invocations : int;  (** Task invocations feeding {!em_agreement}. *)
  max_paths : int;
  max_visits : int;  (** Path-enumeration bounds for oracles 3 and 4. *)
  em_max_iters : int;  (** EM iterations compared by {!em_agreement}. *)
  walk_samples : int;  (** Ground-truth walks drawn by {!convergence}. *)
  conv_max_paths : int;
  conv_max_visits : int;
      (** Enumeration bounds for {!convergence} — larger than the shared
          ones, since only the sparse estimator runs over them and
          truncation (renormalized estimates vs. untruncated walk ground
          truth) would otherwise force skips. *)
  enum_steps : int;
      (** Work cap ({!Tomo.Paths.enumerate} [max_steps]) for both path
          enumerations — fuzzed CFGs can make unbounded enumeration
          effectively diverge. *)
  conv_samples : int array;  (** Increasing sample sizes for {!convergence}. *)
  conv_tol : float;  (** Error bound at the largest sample size. *)
  conv_slack : float;  (** Allowed error growth between first and last. *)
}

val default_params : params

type observation = {
  vars : (string * int) list;
  arrays : (string * int array) list;
  tx : int list;
  leds : int;
  led_writes : int;
  stats : Mote_machine.Machine.stats;
}
(** Observable state after a run: globals and the task frame, array
    contents, radio TX log, LED port, and the raw statistics (the latter
    compared only through layout-invariant combinations). *)

val observe :
  env_seed:int ->
  invocations:int ->
  Mote_lang.Compile.t ->
  Mote_isa.Program.t ->
  (observation, string) result
(** Run [__init] then the task [invocations] times against a fresh
    environment and read the observable state back.  The compile result
    supplies the symbol tables; the binary may be any data-layout-
    preserving variant of it. *)

val optimize :
  params -> env_seed:int -> Mote_lang.Ast.program -> Mote_lang.Compile.t -> verdict

val rewrite : params -> Stats.Rng.t -> env_seed:int -> Mote_lang.Compile.t -> verdict

val em_agreement : params -> env_seed:int -> Mote_lang.Compile.t -> verdict

val convergence : params -> Stats.Rng.t -> Mote_lang.Compile.t -> verdict

val faults :
  params -> Stats.Rng.t -> env_seed:int -> Mote_lang.Compile.t -> verdict
(** The lossy-telemetry degradation oracle.  Draws a fault seed and a
    bounded random {!Profilekit.Transport.config} from its stream, runs
    the instrumented binary, perturbs the raw probe log, and asserts the
    graceful-degradation contract end to end: {!Profilekit.Transport}
    determinism and accounting, exception-free lossy collection,
    sanitizer report consistency, finite in-range robust-EM results, and
    a natural (bit-identical modulo relinking) layout for every
    procedure whose health verdict is [Rejected]. *)

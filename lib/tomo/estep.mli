(** The one E-step kernel of the path-mixture estimators — shared by the
    batch EM ({!Em.estimate}, exact and robust) and the streaming
    estimator ({!Online}).

    For one distinct observation value the kernel evaluates the expensive
    terms (log prior, Gaussian log-pdf, [exp]) once per merged signature
    ({!Paths.signatures}), then folds the normaliser and the M-step
    accumulators over a {e fold given as data}: a visiting order over
    signatures plus a per-signature weight.

    - {!Raw}: every raw path in enumeration order
      ({!Paths.signature_of_path}), weight 1.  This replays the dense
      per-path reference ({!Em.Dense}) bit-for-bit.
    - {!Merged}: every signature once, weighted by its multiplicity —
      cheaper, but its partial sums round differently from the dense
      fold. *)

type fold = Raw | Merged

(** M-step accumulators: expected taken / total traversals per parameter,
    the responsibility-weighted squared residual, and the responsibility
    mass.  [accumulate] adds to them, so a caller may decay them between
    observations ({!Online}) or start each iteration afresh ({!Em}). *)
type acc = {
  taken : float array;
  either : float array;
  mutable sq : float;
  mutable mass : float;
}

type t
(** Per-signature scratch for one path set.  Not thread-safe: one per
    estimation. *)

val create : log_threshold:float -> floor:float -> Paths.t -> fold -> t
(** [log_threshold] drops a signature whose log weight trails the
    per-value maximum by at least this much (at {!Em.exact_log_threshold}
    only terms whose [exp] underflows to 0.0 anyway).  A responsibility
    contributes to the accumulators only when it exceeds [floor]. *)

val acc : int -> acc
(** Zeroed accumulators for [k] parameters. *)

val set_prior : t -> theta:float array -> log_in:float -> unit
(** Load the per-signature log prior under θ (each probability floored at
    1e-12 before the log), plus the log mixture weight [log_in] of the
    path component.  Pass 0.0 without an outlier component: no log prior
    is −0.0, so adding +0.0 changes no bit.
    @raise Invalid_argument if θ does not fit the model. *)

val accumulate : t -> acc -> log_out:float -> sigma:float -> float -> float -> float
(** [accumulate t a ~log_out ~sigma value count] runs the E-step for
    [count] observations of [value] under the loaded prior and Gaussian
    noise [sigma], adds the responsibilities to [a], and returns the
    log normaliser (log-likelihood of one observation).  [log_out] is
    the log density of the outlier component ([neg_infinity] when there
    is none — then it changes no bit). *)

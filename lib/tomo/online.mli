(** Streaming estimation with bounded memory — what actually runs on the
    mote (or its gateway) when samples arrive one at a time.

    Instead of storing the timing stream and re-running batch EM, the
    online estimator keeps per-parameter sufficient statistics (expected
    taken / total traversals) and updates them with a stochastic-EM step
    per observation: compute the path posterior under the current θ, add
    the responsibilities, decay everything by a forgetting factor.  Memory
    is O(signatures + parameters) regardless of stream length, and the
    decay makes the estimate track nonstationary inputs — a recursive
    sibling of {!Windowed}.

    Each observation is one call of the E-step kernel {!Estep} that
    {!Em.estimate} runs, with count 1 and the raw-path fold
    ({!Estep.Raw}): the posterior terms are evaluated once per merged
    signature, and responsibilities above 1e-12 are accumulated in raw
    enumeration order, so the result equals a dense per-path update bit
    for bit (the fuzzer checks it against one). *)

type t

val create : ?decay:float -> ?sigma:float -> Paths.t -> t
(** [decay] in (0,1]: per-observation forgetting factor (1.0 = plain
    running averages; default 0.999 ≈ an effective window of ~1000
    samples).  [sigma] is the timing-noise scale (default 1.0). *)

val observe : t -> float -> unit
(** Feed one end-to-end timing observation. *)

val observe_all : t -> float array -> unit

val theta : t -> float array
(** Current estimate (0.5 for parameters with no evidence yet). *)

val observations : t -> int

val effective_weight : t -> float
(** Decayed total evidence mass — small right after a drift when decay has
    washed out the old regime. *)

type t = {
  decay : float;
  sigma : float;
  acc : Estep.acc;
  kernel : Estep.t;
  mutable weight : float;
  mutable count : int;
}

let create ?(decay = 0.999) ?(sigma = 1.0) paths =
  if decay <= 0.0 || decay > 1.0 then invalid_arg "Online.create: decay outside (0,1]";
  if sigma <= 0.0 then invalid_arg "Online.create: sigma must be positive";
  {
    decay;
    sigma;
    acc = Estep.acc (Model.num_params (Paths.model paths));
    (* The raw fold replays the per-path posterior of one observation bit
       for bit; responsibilities at or below 1e-12 are not accumulated. *)
    kernel = Estep.create ~log_threshold:Em.exact_log_threshold ~floor:1e-12 paths Estep.Raw;
    weight = 0.0;
    count = 0;
  }

let theta t =
  let { Estep.taken; either; _ } = t.acc in
  Array.init (Array.length taken) (fun j ->
      if either.(j) <= 1e-12 then 0.5
      else Stdlib.max 1e-4 (Stdlib.min (1.0 -. 1e-4) (taken.(j) /. either.(j))))

let observe t value =
  (* Posterior under the current θ, then decay, then accumulate. *)
  Estep.set_prior t.kernel ~theta:(theta t) ~log_in:0.0;
  let { Estep.taken; either; _ } = t.acc in
  for j = 0 to Array.length taken - 1 do
    taken.(j) <- taken.(j) *. t.decay;
    either.(j) <- either.(j) *. t.decay
  done;
  t.weight <- (t.weight *. t.decay) +. 1.0;
  (* The log-likelihood, and the squared residual and mass the batch EM
     fits σ with, go unused here. *)
  ignore (Estep.accumulate t.kernel t.acc ~log_out:neg_infinity ~sigma:t.sigma value 1.0);
  t.count <- t.count + 1

let observe_all t samples = Array.iter (observe t) samples

let observations t = t.count

let effective_weight t = t.weight

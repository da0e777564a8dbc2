type fold = Raw | Merged

type acc = {
  taken : float array;
  either : float array;
  mutable sq : float;
  mutable mass : float;
}

type t = {
  paths : Paths.t;
  cost : float array;
  order : int array;
  weight : float array;
  log_threshold : float;
  floor : float;
  lp : float array;
  lw : float array;
  expw : float array;
  resp : float array;
  sq : float array;
}

let half_log_two_pi = 0.5 *. log (2.0 *. Float.pi)

let create ~log_threshold ~floor paths fold =
  let sigs = Paths.signatures paths in
  let ns = Array.length sigs in
  let order, weight =
    match fold with
    | Raw -> (Paths.signature_of_path paths, Array.make ns 1.0)
    | Merged ->
        (Array.init ns Fun.id, Array.map (fun s -> float_of_int s.Paths.s_weight) sigs)
  in
  let scratch () = Array.make ns 0.0 in
  {
    paths;
    cost = Array.map (fun s -> s.Paths.s_cost) sigs;
    order;
    weight;
    log_threshold;
    floor;
    lp = scratch ();
    lw = scratch ();
    expw = scratch ();
    resp = scratch ();
    sq = scratch ();
  }

let acc k = { taken = Array.make k 0.0; either = Array.make k 0.0; sq = 0.0; mass = 0.0 }

let set_prior t ~theta ~log_in =
  Model.check_theta (Paths.model t.paths) theta;
  let tiny = 1e-12 in
  let log_t = Array.map (fun p -> log (Stdlib.max tiny p)) theta in
  let log_f = Array.map (fun p -> log (Stdlib.max tiny (1.0 -. p))) theta in
  Paths.signature_log_prior t.paths ~log_t ~log_f t.lp;
  Array.iteri (fun s lp -> t.lp.(s) <- log_in +. lp) t.lp

let accumulate t a ~log_out ~sigma value count =
  let cost = t.cost and lp = t.lp and lw = t.lw and expw = t.expw in
  let resp = t.resp and sq = t.sq and weight = t.weight in
  let threshold = t.log_threshold and floor = t.floor in
  let ns = Array.length cost in
  let log_sigma = log sigma in
  (* The expensive terms — log prior, Gaussian log-pdf, both exps — once
     per signature... *)
  let best = ref log_out in
  for s = 0 to ns - 1 do
    let z = (value -. cost.(s)) /. sigma in
    let w = lp.(s) +. ((-0.5 *. z *. z) -. log_sigma -. half_log_two_pi) in
    lw.(s) <- w;
    if w > !best then best := w
  done;
  let best = !best in
  for s = 0 to ns - 1 do
    expw.(s) <-
      (if best -. lw.(s) >= threshold then 0.0 else weight.(s) *. exp (lw.(s) -. best))
  done;
  (* ...then the normaliser folded in [order], so the partial sums round
     exactly as the reference fold did. *)
  let order = t.order in
  let z = ref (exp (log_out -. best)) in
  for i = 0 to Array.length order - 1 do
    z := !z +. expw.(order.(i))
  done;
  let lse = best +. log !z in
  for s = 0 to ns - 1 do
    let r = if expw.(s) = 0.0 then 0.0 else weight.(s) *. count *. exp (lw.(s) -. lse) in
    resp.(s) <- r;
    if r > floor then begin
      let d = value -. cost.(s) in
      sq.(s) <- r *. d *. d
    end
  done;
  (* M-step accumulation in the same order, iterating only nonzero branch
     counts (the dense loop guarded on c > 0, so the terms match). *)
  let sigs = Paths.signatures t.paths and taken = a.taken and either = a.either in
  let sq_acc = ref a.sq and mass = ref a.mass in
  for i = 0 to Array.length order - 1 do
    let s = order.(i) in
    let r = resp.(s) in
    if r > floor then begin
      let entry = sigs.(s) in
      let idx = entry.Paths.s_taken_idx and cnt = entry.Paths.s_taken_cnt in
      for c = 0 to Array.length idx - 1 do
        let j = idx.(c) in
        let rf = r *. cnt.(c) in
        taken.(j) <- taken.(j) +. rf;
        either.(j) <- either.(j) +. rf
      done;
      let idx = entry.Paths.s_nottaken_idx and cnt = entry.Paths.s_nottaken_cnt in
      for c = 0 to Array.length idx - 1 do
        either.(idx.(c)) <- either.(idx.(c)) +. (r *. cnt.(c))
      done;
      sq_acc := !sq_acc +. sq.(s);
      mass := !mass +. r
    end
  done;
  a.sq <- !sq_acc;
  a.mass <- !mass;
  lse

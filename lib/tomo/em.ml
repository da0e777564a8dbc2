type result = {
  theta : float array;
  sigma : float;
  iterations : int;
  log_likelihood : float;
  converged : bool;
  trajectory : (float array * float) list;
  outlier_eps : float option;
}

type outlier = { eps : float; estimate_eps : bool; max_eps : float }

let default_outlier = { eps = 0.05; estimate_eps = true; max_eps = 0.5 }

(* A window is the difference of two quantized timestamps, so the
   quantization error is triangular on (−res, res): variance (res²−1)/6 for
   integer cycle counts (zero when res = 1).  Jitter applies at both
   endpoints. *)
let default_sigma ~resolution ~jitter =
  let r = float_of_int resolution in
  Stdlib.max 0.1 (sqrt (((r *. r) -. 1.0) /. 6.0 +. (2.0 *. jitter *. jitter)))

let group_samples samples =
  let n = Array.length samples in
  let tbl = Hashtbl.create (Stdlib.max 16 n) in
  Array.iter
    (fun v -> Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    samples;
  let grouped = Array.make (Hashtbl.length tbl) (0.0, 0.0) in
  let at = ref 0 in
  Hashtbl.iter
    (fun v c ->
      grouped.(!at) <- (v, float_of_int c);
      incr at)
    tbl;
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) grouped;
  grouped

let clamp_theta p = Stdlib.max 1e-4 (Stdlib.min (1.0 -. 1e-4) p)

let clamp_eps oc e = Stdlib.max 1e-6 (Stdlib.min oc.max_eps e)

(* exp x underflows to exactly +0.0 below ≈ −745.14, so dropping a path
   whose log weight trails the per-value max by more than this changes no
   bit of any sum the reference dense E-step would have computed. *)
let exact_log_threshold = 746.0

(* One loop for the exact and the contamination-robust variants.  The
   robust mixture gains one uniform component of weight ε whose support
   covers both the path-cost envelope and the observed sample range, so a
   sample no path could explain lands on the outlier component instead of
   producing a degenerate E-step; σ is re-estimated over the inlier
   responsibility mass only, and ε (when re-estimated) is the outlier mass
   fraction, clamped.  Without it, ε = 0 makes log_in = 0 and
   log_out = −∞, which change no bit of the exact kernel's sums. *)
let estimate ?(max_iters = 100) ?(tol = 1e-5) ?init ?(sigma = 2.0) ?(estimate_sigma = true)
    ?(sigma_floor = 0.1) ?(log_threshold = exact_log_threshold)
    ?(record_trajectory = true) ?outlier paths ~samples =
  if Array.length samples = 0 then invalid_arg "Em.estimate: no samples";
  let model = Paths.model paths in
  let k = Model.num_params model in
  let grouped = group_samples samples in
  let n_total = Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 grouped in
  let sigma0 = Stdlib.max sigma_floor sigma in
  let tiny = 1e-12 in
  let robust = Option.is_some outlier in
  (* Uniform support: the widest of the cost envelope and the sample
     range, padded so no observation sits on a density cliff. *)
  let log_u =
    match outlier with
    | None -> 0.0
    | Some _ ->
        let smin, _ = grouped.(0) and smax, _ = grouped.(Array.length grouped - 1) in
        let pad = Stdlib.max (6.0 *. sigma0) 1.0 in
        let lo = Stdlib.min (Paths.min_cost paths) smin -. pad in
        let hi = Stdlib.max (Paths.max_cost paths) smax +. pad in
        let hi = if hi > lo then hi else lo +. 1.0 in
        -.log (hi -. lo)
  in
  (* The exact variant replays the dense per-path fold; the robust one
     visits each signature once, weighted by its multiplicity. *)
  let kernel =
    Estep.create ~log_threshold ~floor:0.0 paths (if robust then Estep.Merged else Estep.Raw)
  in
  let theta = ref (match init with Some t -> Array.copy t | None -> Model.uniform_theta model) in
  let sigma = ref sigma0 in
  let eps = ref (match outlier with Some oc -> clamp_eps oc oc.eps | None -> 0.0) in
  let trajectory = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  let final_ll = ref neg_infinity in
  while (not !converged) && !iterations < max_iters do
    incr iterations;
    Estep.set_prior kernel ~theta:!theta ~log_in:(log (Stdlib.max tiny (1.0 -. !eps)));
    let log_out = log !eps +. log_u in
    let a = Estep.acc k in
    let outlier_mass = ref 0.0 in
    let ll = ref 0.0 in
    Array.iter
      (fun (value, count) ->
        let lse = Estep.accumulate kernel a ~log_out ~sigma:!sigma value count in
        ll := !ll +. (count *. lse);
        outlier_mass := !outlier_mass +. (count *. exp (log_out -. lse)))
      grouped;
    let new_theta =
      Array.init k (fun j ->
          if a.either.(j) <= 0.0 then !theta.(j) else clamp_theta (a.taken.(j) /. a.either.(j)))
    in
    let new_sigma =
      if estimate_sigma then
        let mass = if robust then Stdlib.max tiny a.mass else n_total in
        Stdlib.max sigma_floor (sqrt (a.sq /. mass))
      else !sigma
    in
    let new_eps =
      match outlier with
      | Some oc when oc.estimate_eps -> clamp_eps oc (!outlier_mass /. n_total)
      | _ -> !eps
    in
    let delta =
      Array.mapi (fun j v -> abs_float (v -. !theta.(j))) new_theta
      |> Array.fold_left Stdlib.max (abs_float (new_eps -. !eps))
    in
    theta := new_theta;
    sigma := new_sigma;
    eps := new_eps;
    final_ll := !ll;
    if record_trajectory then trajectory := (Array.copy new_theta, !ll) :: !trajectory;
    if delta < tol then converged := true
  done;
  {
    theta = !theta;
    sigma = !sigma;
    iterations = !iterations;
    log_likelihood = !final_ll;
    converged = !converged;
    trajectory = List.rev !trajectory;
    outlier_eps = Option.map (fun _ -> !eps) outlier;
  }

(* The dense per-path reference the sparse kernels were derived from.  Kept
   as a library citizen (not test scaffolding) so the equivalence tests and
   the differential fuzzer exercise one and the same implementation.  Every
   fold below visits raw paths in enumeration order and guards on c > 0 —
   the exact semantics the optimized kernels replay bit-for-bit. *)
module Dense = struct
  let estimate ?(max_iters = 100) ?(tol = 1e-5) ?init ?(sigma = 2.0)
      ?(estimate_sigma = true) ?(sigma_floor = 0.1) ?(record_trajectory = true)
      paths ~samples =
    if Array.length samples = 0 then invalid_arg "Em.Dense.estimate: no samples";
    let model = Paths.model paths in
    let k = Model.num_params model in
    let pth = Paths.paths paths in
    let np = Array.length pth in
    let grouped = group_samples samples in
    let n_total = Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 grouped in
    let theta =
      ref (match init with Some t -> Array.copy t | None -> Model.uniform_theta model)
    in
    let sigma = ref (Stdlib.max sigma_floor sigma) in
    let trajectory = ref [] in
    let iterations = ref 0 in
    let converged = ref false in
    let final_ll = ref neg_infinity in
    let logw = Array.make np 0.0 in
    while (not !converged) && !iterations < max_iters do
      incr iterations;
      let log_prior = Paths.log_prior paths ~theta:!theta in
      let taken_acc = Array.make k 0.0 in
      let either_acc = Array.make k 0.0 in
      let sq_acc = ref 0.0 in
      let ll = ref 0.0 in
      Array.iter
        (fun (value, count) ->
          let best = ref neg_infinity in
          for p = 0 to np - 1 do
            let lw =
              log_prior.(p)
              +. Stats.Dist.gaussian_log_pdf ~mu:pth.(p).Paths.cost ~sigma:!sigma value
            in
            logw.(p) <- lw;
            if lw > !best then best := lw
          done;
          let z = ref 0.0 in
          for p = 0 to np - 1 do
            z := !z +. exp (logw.(p) -. !best)
          done;
          let lse = !best +. log !z in
          ll := !ll +. (count *. lse);
          for p = 0 to np - 1 do
            let r = count *. exp (logw.(p) -. lse) in
            if r > 0.0 then begin
              let path = pth.(p) in
              Array.iteri
                (fun j c ->
                  if c > 0 then begin
                    let fc = float_of_int c in
                    taken_acc.(j) <- taken_acc.(j) +. (r *. fc);
                    either_acc.(j) <- either_acc.(j) +. (r *. fc)
                  end)
                path.Paths.taken;
              Array.iteri
                (fun j c ->
                  if c > 0 then either_acc.(j) <- either_acc.(j) +. (r *. float_of_int c))
                path.Paths.nottaken;
              let d = value -. path.Paths.cost in
              sq_acc := !sq_acc +. (r *. d *. d)
            end
          done)
        grouped;
      let new_theta =
        Array.init k (fun j ->
            if either_acc.(j) <= 0.0 then !theta.(j)
            else clamp_theta (taken_acc.(j) /. either_acc.(j)))
      in
      let new_sigma =
        if estimate_sigma then Stdlib.max sigma_floor (sqrt (!sq_acc /. n_total))
        else !sigma
      in
      let delta =
        Array.mapi (fun j v -> abs_float (v -. !theta.(j))) new_theta
        |> Array.fold_left Stdlib.max 0.0
      in
      theta := new_theta;
      sigma := new_sigma;
      final_ll := !ll;
      if record_trajectory then trajectory := (Array.copy new_theta, !ll) :: !trajectory;
      if delta < tol then converged := true
    done;
    {
      theta = !theta;
      sigma = !sigma;
      iterations = !iterations;
      log_likelihood = !final_ll;
      converged = !converged;
      trajectory = List.rev !trajectory;
      outlier_eps = None;
    }
end

module Machine = Mote_machine.Machine
module Program = Mote_isa.Program
module Cfg = Cfgir.Cfg

(* Branch sites are numbered in procedure order, and within a procedure
   in {!Cfg.branch_blocks} order, so a procedure's sites are the range
   [first, first + length branch_blocks).  The branch hook reads the site
   of a pc from [site_of_pc] (-1 for a pc that ends no branch block) and
   bumps a counter: no hashing or allocation per branch. *)
type t = {
  machine : Machine.t;
  procs : (string * (Cfg.t * int)) list; (* name -> (cfg, first site) *)
  site_of_pc : int array;
  taken : int array;
  fall : int array;
  mutable total : int;
}

let attach machine =
  let program = Machine.program machine in
  let site_of_pc = Array.make (Program.length program) (-1) in
  let next_site = ref 0 in
  let procs =
    List.map
      (fun cfg ->
        let first = !next_site in
        List.iter
          (fun id ->
            site_of_pc.((Cfg.block cfg id).Cfg.last) <- !next_site;
            incr next_site)
          (Cfg.branch_blocks cfg);
        (cfg.Cfg.proc.Program.name, (cfg, first)))
      (Cfg.of_program program)
  in
  let t =
    {
      machine;
      procs;
      site_of_pc;
      taken = Array.make !next_site 0;
      fall = Array.make !next_site 0;
      total = 0;
    }
  in
  Machine.set_branch_hook machine
    (Some
       (fun ~pc ~taken ->
         let site = t.site_of_pc.(pc) in
         if site >= 0 then begin
           t.total <- t.total + 1;
           if taken then t.taken.(site) <- t.taken.(site) + 1
           else t.fall.(site) <- t.fall.(site) + 1
         end));
  t

let detach t = Machine.set_branch_hook t.machine None

let proc_of t proc =
  match List.assoc_opt proc t.procs with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Oracle: unknown procedure %S" proc)

let counts t ~proc =
  let cfg, first = proc_of t proc in
  List.mapi
    (fun k id -> (id, (t.taken.(first + k), t.fall.(first + k))))
    (Cfg.branch_blocks cfg)

let thetas t ~proc =
  counts t ~proc
  |> List.map (fun (id, (tk, fl)) ->
         let total = tk + fl in
         (id, if total = 0 then 0.5 else float_of_int tk /. float_of_int total))

let theta_vector t ~proc = Array.of_list (List.map snd (thetas t ~proc))

let total_branches t = t.total

let freq t ~proc ~invocations =
  let cfg, _ = proc_of t proc in
  let counts =
    counts t ~proc
    |> List.map (fun (id, (tk, fl)) -> (id, (float_of_int tk, float_of_int fl)))
  in
  Flowcount.freq_of_branch_counts cfg ~invocations ~counts

(* Goldens for the simulator: machine statistics, scheduler statistics,
   the transmit and probe logs, and the oracle's branch counts, for every
   workload at two seeds, on the natural binary (what
   [Pipeline.run_binary] executes) and on the instrumented one (what
   [Pipeline.profile] executes), plus three scheduler scenarios the
   workloads do not reach (radio bursts into a full queue, a deep queue).
   The expected strings were captured from the reference interpreter and
   scheduler; any change to the simulator's fast paths must reproduce
   them exactly. *)

module P = Codetomo.Pipeline
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Node = Mote_os.Node
module Oracle = Profilekit.Oracle

type mode = Natural | Profile | Profile_noisy

let mode_name = function
  | Natural -> "natural"
  | Profile -> "profile"
  | Profile_noisy -> "profile-r4j2"

let config_of mode seed =
  match mode with
  | Natural | Profile -> { P.default_config with seed }
  | Profile_noisy -> { P.default_config with seed; timer_resolution = 4; timer_jitter = 2.0 }

let hex s = Digest.to_hex (Digest.string s)

let digest_ints xs = hex (String.concat "," (List.map string_of_int xs))

let digest_probes records =
  hex
    (String.concat ";"
       (List.map
          (fun { Devices.pc; cycles; value } -> Printf.sprintf "%d:%d:%d" pc cycles value)
          records))

let render_machine (s : Machine.stats) =
  Printf.sprintf "ins=%d cyc=%d br=%d tk=%d mis=%d jmp=%d call=%d ret=%d" s.Machine.instructions
    s.cycles s.cond_branches s.taken_cond_branches s.mispredicted_branches
    s.unconditional_transfers s.calls s.returns

let render_node (s : Node.run_stats) =
  Printf.sprintf "tasks=[%s] drop=%d pk=%d total=%d idle=%d busy=%d"
    (String.concat ";" (List.map (fun (p, n) -> Printf.sprintf "%s:%d" p n) s.Node.tasks_run))
    s.tasks_dropped s.packets_delivered s.total_cycles s.idle_cycles s.busy_cycles

let render_counts oracle procs =
  String.concat " "
    (List.map
       (fun proc ->
         Printf.sprintf "%s=[%s]" proc
           (String.concat ";"
              (List.map
                 (fun (id, (tk, fl)) -> Printf.sprintf "%d:%d/%d" id tk fl)
                 (Oracle.counts oracle ~proc))))
       procs)

(* The node [Pipeline] builds for a run (same device, machine and
   environment seeding), with the oracle attached; the oracle adds no
   instruction or cycle, so the run is the pipeline's run. *)
let simulate ~config (w : Workloads.t) binary =
  let devices =
    Devices.create ~timer_resolution:config.P.timer_resolution
      ~timer_jitter:config.P.timer_jitter
      ~rng:(Stats.Rng.create (config.P.seed + 7919))
      ()
  in
  let machine = Machine.create ~prediction:config.P.prediction ~program:binary ~devices () in
  let env = Env.create { w.Workloads.env_config with Env.seed = config.P.seed } in
  let node = Node.create ~machine ~env ~tasks:w.Workloads.tasks () in
  let oracle = Oracle.attach machine in
  let node_stats = Node.run node ~until:w.Workloads.horizon in
  Oracle.detach oracle;
  (machine, node_stats, oracle)

let render (w : Workloads.t) seed mode =
  let config = config_of mode seed in
  let compiled = Workloads.compiled w in
  let binary =
    match mode with
    | Natural -> compiled.Mote_lang.Compile.program
    | Profile | Profile_noisy ->
        Mote_isa.Asm.assemble (Profilekit.Probes.instrument compiled.Mote_lang.Compile.items)
  in
  let machine, node_stats, oracle = simulate ~config w binary in
  let stats = Machine.stats machine in
  (* Tie the mirror to the pipeline entry points it stands for. *)
  (match mode with
  | Natural ->
      let v = P.run_binary ~config w binary ~label:"natural" in
      if v.P.stats <> stats || v.P.busy_cycles <> node_stats.Node.busy_cycles then
        Alcotest.fail "mirror disagrees with Pipeline.run_binary"
  | Profile | Profile_noisy ->
      let run = P.profile ~config ~compiled w in
      if run.P.node_stats <> node_stats then
        Alcotest.fail "mirror disagrees with Pipeline.profile");
  let devices = Machine.devices machine in
  Printf.sprintf "%s | %s | tx=%s probes=%s | %s" (render_machine stats)
    (render_node node_stats)
    (digest_ints (Devices.tx_log devices))
    (digest_probes (Devices.probe_log devices))
    (render_counts oracle w.Workloads.profiled)

let cases =
  List.concat_map
    (fun (w : Workloads.t) ->
      List.concat_map
        (fun seed ->
          List.map (fun mode -> (w, seed, mode)) [ Natural; Profile; Profile_noisy ])
        [ 42; 7 ])
    Workloads.all

let case_name ((w : Workloads.t), seed, mode) =
  Printf.sprintf "%s s%d %s" w.Workloads.name seed (mode_name mode)

let goldens =
  [
    ("blink s42 natural",
     "ins=100471 cyc=3000000 br=9984 tk=9360 mis=9360 jmp=624 call=0 ret=4993 | tasks=[blink_task:4992] drop=0 pk=0 total=2999988 idle=2829636 busy=170352 | tx=d41d8cd98f00b204e9800998ecf8427e probes=d41d8cd98f00b204e9800998ecf8427e | blink_task=[0:4368/624;3:4992/0]");
    ("blink s42 profile",
     "ins=120439 cyc=3000000 br=9984 tk=9360 mis=9360 jmp=624 call=0 ret=4993 | tasks=[blink_task:4992] drop=0 pk=0 total=2999988 idle=2789700 busy=210288 | tx=d41d8cd98f00b204e9800998ecf8427e probes=018baafb7a84d9399cc802ba3c4a149d | blink_task=[0:4368/624;3:4992/0]");
    ("blink s42 profile-r4j2",
     "ins=120439 cyc=3000000 br=9984 tk=9360 mis=9360 jmp=624 call=0 ret=4993 | tasks=[blink_task:4992] drop=0 pk=0 total=2999988 idle=2789700 busy=210288 | tx=d41d8cd98f00b204e9800998ecf8427e probes=47987d08f3ceb1fddc2025f069a8fb18 | blink_task=[0:4368/624;3:4992/0]");
    ("blink s7 natural",
     "ins=100471 cyc=3000000 br=9984 tk=9360 mis=9360 jmp=624 call=0 ret=4993 | tasks=[blink_task:4992] drop=0 pk=0 total=2999988 idle=2829636 busy=170352 | tx=d41d8cd98f00b204e9800998ecf8427e probes=d41d8cd98f00b204e9800998ecf8427e | blink_task=[0:4368/624;3:4992/0]");
    ("blink s7 profile",
     "ins=120439 cyc=3000000 br=9984 tk=9360 mis=9360 jmp=624 call=0 ret=4993 | tasks=[blink_task:4992] drop=0 pk=0 total=2999988 idle=2789700 busy=210288 | tx=d41d8cd98f00b204e9800998ecf8427e probes=018baafb7a84d9399cc802ba3c4a149d | blink_task=[0:4368/624;3:4992/0]");
    ("blink s7 profile-r4j2",
     "ins=120439 cyc=3000000 br=9984 tk=9360 mis=9360 jmp=624 call=0 ret=4993 | tasks=[blink_task:4992] drop=0 pk=0 total=2999988 idle=2789700 busy=210288 | tx=d41d8cd98f00b204e9800998ecf8427e probes=f4cf3889ab673c7da2af25e320e74035 | blink_task=[0:4368/624;3:4992/0]");
    ("sense s42 natural",
     "ins=127810 cyc=4000000 br=7014 tk=4158 mis=4158 jmp=2686 call=0 ret=4727 | tasks=[report_task:286;sense_task:4440] drop=0 pk=0 total=3999984 idle=3795190 busy=204794 | tx=9a2516d2ab0a2aa4bb1bfd853d73c8ee probes=d41d8cd98f00b204e9800998ecf8427e | sense_task=[0:3470/970] report_task=[1:286/1716;3:253/33;5:149/137]");
    ("sense s42 profile",
     "ins=146714 cyc=4000000 br=7014 tk=4158 mis=4158 jmp=2686 call=0 ret=4727 | tasks=[report_task:286;sense_task:4440] drop=0 pk=0 total=3999984 idle=3757382 busy=242602 | tx=9a2516d2ab0a2aa4bb1bfd853d73c8ee probes=ac15f982a8c52dbbabf2eb705f0cbfd9 | sense_task=[0:3470/970] report_task=[1:286/1716;3:253/33;5:149/137]");
    ("sense s42 profile-r4j2",
     "ins=146714 cyc=4000000 br=7014 tk=4158 mis=4158 jmp=2686 call=0 ret=4727 | tasks=[report_task:286;sense_task:4440] drop=0 pk=0 total=3999984 idle=3757382 busy=242602 | tx=9a2516d2ab0a2aa4bb1bfd853d73c8ee probes=0ce75284398df2ac6fd0931625f7305c | sense_task=[0:3470/970] report_task=[1:286/1716;3:253/33;5:149/137]");
    ("sense s7 natural",
     "ins=127621 cyc=4000000 br=7014 tk=4247 mis=4247 jmp=2622 call=0 ret=4727 | tasks=[report_task:286;sense_task:4440] drop=0 pk=0 total=3999984 idle=3795443 busy=204541 | tx=bad48347733c9622b331d2a3b9987bf0 probes=d41d8cd98f00b204e9800998ecf8427e | sense_task=[0:3534/906] report_task=[1:286/1716;3:266/20;5:161/125]");
    ("sense s7 profile",
     "ins=146525 cyc=4000000 br=7014 tk=4247 mis=4247 jmp=2622 call=0 ret=4727 | tasks=[report_task:286;sense_task:4440] drop=0 pk=0 total=3999984 idle=3757635 busy=242349 | tx=bad48347733c9622b331d2a3b9987bf0 probes=379f85986c427573a569bc95cc2567f5 | sense_task=[0:3534/906] report_task=[1:286/1716;3:266/20;5:161/125]");
    ("sense s7 profile-r4j2",
     "ins=146525 cyc=4000000 br=7014 tk=4247 mis=4247 jmp=2622 call=0 ret=4727 | tasks=[report_task:286;sense_task:4440] drop=0 pk=0 total=3999984 idle=3757635 busy=242349 | tx=bad48347733c9622b331d2a3b9987bf0 probes=f4f2618204189f3bb91f9394818a54aa | sense_task=[0:3534/906] report_task=[1:286/1716;3:266/20;5:161/125]");
    ("filter s42 natural",
     "ins=209824 cyc=4000000 br=14982 tk=8641 mis=8641 jmp=4573 call=0 ret=4995 | tasks=[filter_task:4994] drop=0 pk=0 total=3999988 idle=3673969 busy=326019 | tx=ec8a1b5c66e0d35ab5bee31501924422 probes=d41d8cd98f00b204e9800998ecf8427e | filter_task=[0:4524/470;2:421/4573;3:3482/1091;6:214/207]");
    ("filter s42 profile",
     "ins=229800 cyc=4000000 br=14982 tk=8641 mis=8641 jmp=4573 call=0 ret=4995 | tasks=[filter_task:4994] drop=0 pk=0 total=3999988 idle=3634017 busy=365971 | tx=ec8a1b5c66e0d35ab5bee31501924422 probes=29a63b07e33d6c0e43df43da19df4698 | filter_task=[0:4524/470;2:421/4573;3:3482/1091;6:214/207]");
    ("filter s42 profile-r4j2",
     "ins=229800 cyc=4000000 br=14982 tk=8641 mis=8641 jmp=4573 call=0 ret=4995 | tasks=[filter_task:4994] drop=0 pk=0 total=3999988 idle=3634017 busy=365971 | tx=ec8a1b5c66e0d35ab5bee31501924422 probes=0473c527cf2ff10e8e683d3ef1899378 | filter_task=[0:4524/470;2:421/4573;3:3482/1091;6:214/207]");
    ("filter s7 natural",
     "ins=209541 cyc=4000000 br=14982 tk=8692 mis=8692 jmp=4550 call=0 ret=4995 | tasks=[filter_task:4994] drop=0 pk=0 total=3999988 idle=3674298 busy=325690 | tx=6ae1d6cae77ff8a355ba339d92ad4867 probes=d41d8cd98f00b204e9800998ecf8427e | filter_task=[0:4529/465;2:444/4550;3:3459/1091;6:260/184]");
    ("filter s7 profile",
     "ins=229517 cyc=4000000 br=14982 tk=8692 mis=8692 jmp=4550 call=0 ret=4995 | tasks=[filter_task:4994] drop=0 pk=0 total=3999988 idle=3634346 busy=365642 | tx=6ae1d6cae77ff8a355ba339d92ad4867 probes=0bb92f4fad6df71b223e1f5562790f06 | filter_task=[0:4529/465;2:444/4550;3:3459/1091;6:260/184]");
    ("filter s7 profile-r4j2",
     "ins=229517 cyc=4000000 br=14982 tk=8692 mis=8692 jmp=4550 call=0 ret=4995 | tasks=[filter_task:4994] drop=0 pk=0 total=3999988 idle=3634346 busy=365642 | tx=6ae1d6cae77ff8a355ba339d92ad4867 probes=8f4ca57f54b5aa61ecfec94f227cd2df | filter_task=[0:4529/465;2:444/4550;3:3459/1091;6:260/184]");
    ("ctp s42 natural",
     "ins=168769 cyc=5000000 br=13886 tk=8524 mis=8524 jmp=5359 call=0 ret=3181 | tasks=[ctp_beacon_task:251;ctp_rx_task:2929] drop=0 pk=2929 total=4999976 idle=4737343 busy=262633 | tx=3d1ff2461e9675f4ce5f49ef8f152040 probes=d41d8cd98f00b204e9800998ecf8427e | ctp_rx_task=[0:2191/738;2:738/2952;3:2949/3;6:735/3;8:191/544;12:1469/722] ctp_beacon_task=[1:251/400]");
    ("ctp s42 profile",
     "ins=181489 cyc=5000000 br=13886 tk=8524 mis=8524 jmp=5359 call=0 ret=3181 | tasks=[ctp_beacon_task:251;ctp_rx_task:2929] drop=0 pk=2929 total=4999976 idle=4711903 busy=288073 | tx=3d1ff2461e9675f4ce5f49ef8f152040 probes=1e98e1f8209e6f290fe35ba7d252805e | ctp_rx_task=[0:2191/738;2:738/2952;3:2949/3;6:735/3;8:191/544;12:1469/722] ctp_beacon_task=[1:251/400]");
    ("ctp s42 profile-r4j2",
     "ins=181489 cyc=5000000 br=13886 tk=8524 mis=8524 jmp=5359 call=0 ret=3181 | tasks=[ctp_beacon_task:251;ctp_rx_task:2929] drop=0 pk=2929 total=4999976 idle=4711903 busy=288073 | tx=3d1ff2461e9675f4ce5f49ef8f152040 probes=3d8ff5bdecc4f3d713e40c8f9c6f31f1 | ctp_rx_task=[0:2191/738;2:738/2952;3:2949/3;6:735/3;8:191/544;12:1469/722] ctp_beacon_task=[1:251/400]");
    ("ctp s7 natural",
     "ins=175405 cyc=5000000 br=14383 tk=8867 mis=8867 jmp=5515 call=0 ret=3345 | tasks=[ctp_beacon_task:251;ctp_rx_task:3093] drop=0 pk=3093 total=4999976 idle=4726981 busy=272995 | tx=dbf1ec3295ab7bf868936383be6e7983 probes=d41d8cd98f00b204e9800998ecf8427e | ctp_rx_task=[0:2335/758;2:758/3032;3:3031/1;6:757/1;8:202/555;12:1533/802] ctp_beacon_task=[1:251/367]");
    ("ctp s7 profile",
     "ins=188781 cyc=5000000 br=14383 tk=8867 mis=8867 jmp=5515 call=0 ret=3345 | tasks=[ctp_beacon_task:251;ctp_rx_task:3093] drop=0 pk=3093 total=4999976 idle=4700229 busy=299747 | tx=dbf1ec3295ab7bf868936383be6e7983 probes=b3ef4757a94dd6ea630bf9e67c46c320 | ctp_rx_task=[0:2335/758;2:758/3032;3:3031/1;6:757/1;8:202/555;12:1533/802] ctp_beacon_task=[1:251/367]");
    ("ctp s7 profile-r4j2",
     "ins=188781 cyc=5000000 br=14383 tk=8867 mis=8867 jmp=5515 call=0 ret=3345 | tasks=[ctp_beacon_task:251;ctp_rx_task:3093] drop=0 pk=3093 total=4999976 idle=4700229 busy=299747 | tx=dbf1ec3295ab7bf868936383be6e7983 probes=55b273297464047095b238dc94fcc80e | ctp_rx_task=[0:2335/758;2:758/3032;3:3031/1;6:757/1;8:202/555;12:1533/802] ctp_beacon_task=[1:251/367]");
    ("monitor s42 natural",
     "ins=251728 cyc=4000000 br=16655 tk=14364 mis=14364 jmp=0 call=6662 ret=9994 | tasks=[monitor_task:3331] drop=0 pk=0 total=3999988 idle=3584840 busy=415148 | tx=1c721d99c1c6c594edc6437fc6f8a3aa probes=d41d8cd98f00b204e9800998ecf8427e | monitor_task=[0:2658/673;2:3123/208] score=[0:1921/1410] clamp=[0:3331/0;2:3331/0]");
    ("monitor s42 profile",
     "ins=291700 cyc=4000000 br=16655 tk=14364 mis=14364 jmp=0 call=6662 ret=9994 | tasks=[monitor_task:3331] drop=0 pk=0 total=3999988 idle=3504896 busy=495092 | tx=1c721d99c1c6c594edc6437fc6f8a3aa probes=3872d2e7652c6bf4799ae0cb75807dbd | monitor_task=[0:2658/673;2:3123/208] score=[0:1921/1410] clamp=[0:3331/0;2:3331/0]");
    ("monitor s42 profile-r4j2",
     "ins=291700 cyc=4000000 br=16655 tk=14364 mis=14364 jmp=0 call=6662 ret=9994 | tasks=[monitor_task:3331] drop=0 pk=0 total=3999988 idle=3504896 busy=495092 | tx=1c721d99c1c6c594edc6437fc6f8a3aa probes=d9f0e6951adc9668971b92dc86e69850 | monitor_task=[0:2658/673;2:3123/208] score=[0:1921/1410] clamp=[0:3331/0;2:3331/0]");
    ("monitor s7 natural",
     "ins=251824 cyc=4000000 br=16655 tk=14352 mis=14352 jmp=0 call=6662 ret=9994 | tasks=[monitor_task:3331] drop=0 pk=0 total=3999988 idle=3584744 busy=415244 | tx=ea3c2c379bb4b0c90eb0aedf8c0576b4 probes=d41d8cd98f00b204e9800998ecf8427e | monitor_task=[0:2658/673;2:3123/208] score=[0:1909/1422] clamp=[0:3331/0;2:3331/0]");
    ("monitor s7 profile",
     "ins=291796 cyc=4000000 br=16655 tk=14352 mis=14352 jmp=0 call=6662 ret=9994 | tasks=[monitor_task:3331] drop=0 pk=0 total=3999988 idle=3504800 busy=495188 | tx=ea3c2c379bb4b0c90eb0aedf8c0576b4 probes=b8d49c88457348f3e5766e52beae0dd2 | monitor_task=[0:2658/673;2:3123/208] score=[0:1909/1422] clamp=[0:3331/0;2:3331/0]");
    ("monitor s7 profile-r4j2",
     "ins=291796 cyc=4000000 br=16655 tk=14352 mis=14352 jmp=0 call=6662 ret=9994 | tasks=[monitor_task:3331] drop=0 pk=0 total=3999988 idle=3504800 busy=495188 | tx=ea3c2c379bb4b0c90eb0aedf8c0576b4 probes=682918581388682c868d3993537c8ea5 | monitor_task=[0:2658/673;2:3123/208] score=[0:1909/1422] clamp=[0:3331/0;2:3331/0]");
  ]

(* A radio burst against two timers: arrivals every ~200 cycles into a
   receive task about as long as the mean gap, so several arrivals and
   ticks fall due at once, the queue overflows, and the transmit log (one
   word per task run, naming the task and its input) records the exact
   dispatch order. *)
let burst_program =
  let open Mote_lang.Ast.Dsl in
  {
    Mote_lang.Ast.globals = [ ("ticks", 0) ];
    arrays = [];
    procs =
      [
        proc "rx_task" ~params:[] ~locals:[ "p"; "k" ]
          [
            set "p" radio_rx;
            set "k" (i 0);
            while_ (v "k" <: i 12) [ set "k" (v "k" +: i 1) ];
            send (v "p");
          ];
        proc "tick_task" ~params:[] ~locals:[]
          [ set "ticks" (v "ticks" +: i 1); send (i 10000 +: v "ticks") ];
        proc "slow_tick_task" ~params:[] ~locals:[] [ send (i (-1)) ];
      ];
  }

let render_burst seed =
  let c = Mote_lang.Compile.compile burst_program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Mote_lang.Compile.program ~devices () in
  let env =
    Env.create
      {
        Env.seed;
        channels = [];
        radio = Env.Poisson { per_kilocycle = 5.0; payload_lo = 1; payload_hi = 999 };
      }
  in
  let tasks =
    [
      { Node.proc = "tick_task"; source = Node.Periodic { period = 700; offset = 3 } };
      { Node.proc = "rx_task"; source = Node.On_radio_rx };
      { Node.proc = "slow_tick_task"; source = Node.Periodic { period = 1100; offset = 0 } };
    ]
  in
  let node = Node.create ~machine ~env ~tasks () in
  let stats = Node.run node ~until:300_000 in
  Printf.sprintf "%s | %s | tx=%s" (render_machine (Machine.stats machine)) (render_node stats)
    (digest_ints (Devices.tx_log devices))

(* A queue far deeper than the default: one long boot task delays five
   timers for ~3000 cycles, so about 150 posts pile up behind a queue
   head that has already moved, and the log records the order they run
   in. *)
let flood_program =
  let open Mote_lang.Ast.Dsl in
  let mark k = proc (Printf.sprintf "mark%d_task" k) ~params:[] ~locals:[] [ send (i k) ] in
  {
    Mote_lang.Ast.globals = [];
    arrays = [];
    procs =
      proc "slow_task" ~params:[] ~locals:[ "k" ]
        [ set "k" (i 0); while_ (v "k" <: i 200) [ set "k" (v "k" +: i 1) ]; send (i 0) ]
      :: List.map mark [ 1; 2; 3; 4; 5 ];
  }

let render_flood () =
  let c = Mote_lang.Compile.compile flood_program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Mote_lang.Compile.program ~devices () in
  let env = Env.create { Env.seed = 1; channels = []; radio = Env.Silent } in
  let tasks =
    { Node.proc = "slow_task"; source = Node.Boot }
    :: List.map
         (fun k ->
           {
             Node.proc = Printf.sprintf "mark%d_task" k;
             source = Node.Periodic { period = 100; offset = k };
           })
         [ 1; 2; 3; 4; 5 ]
  in
  let node = Node.create ~machine ~env ~tasks ~queue_capacity:1000 () in
  let stats = Node.run node ~until:20_000 in
  Printf.sprintf "%s | %s | tx=%s" (render_machine (Machine.stats machine)) (render_node stats)
    (digest_ints (Devices.tx_log devices))

let burst_goldens =
  [
    (3,
     "ins=191922 cyc=300005 br=18083 tk=1391 mis=1391 jmp=16692 call=0 ret=2092 | tasks=[rx_task:1391;slow_tick_task:272;tick_task:428] drop=103 pk=1493 total=299997 idle=5234 busy=294763 | tx=c913ecf84221705b577b1680a6d71f6a");
    (11,
     "ins=193099 cyc=300200 br=18200 tk=1400 mis=1400 jmp=16800 call=0 ret=2094 | tasks=[rx_task:1400;slow_tick_task:266;tick_task:427] drop=134 pk=1536 total=300192 idle=3644 busy=296548 | tx=1d161fb27dcb950efcb39f190dfa338b");
  ]

let test_burst seed () =
  match List.assoc_opt seed burst_goldens with
  | None -> Alcotest.failf "no golden for burst seed %d" seed
  | Some expected -> Alcotest.(check string) "burst" expected (render_burst seed)

let flood_golden =
  "ins=5011 cyc=20000 br=201 tk=1 mis=1 jmp=200 call=0 ret=1002 | tasks=[mark1_task:200;mark2_task:200;mark3_task:200;mark4_task:200;mark5_task:200;slow_task:1] drop=0 pk=0 total=19996 idle=9978 busy=10018 | tx=47c9dcf049899650a5870a4808090b5b"

let test_flood () = Alcotest.(check string) "flood" flood_golden (render_flood ())

let test_case ((w, seed, mode) as case) () =
  let name = case_name case in
  match List.assoc_opt name goldens with
  | None -> Alcotest.failf "no golden for %s" name
  | Some expected -> Alcotest.(check string) name expected (render w seed mode)

let suite =
  List.map
    (fun case -> Alcotest.test_case ("golden " ^ case_name case) `Quick (test_case case))
    cases
  @ List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "golden radio burst s%d" seed) `Quick
          (test_burst seed))
      [ 3; 11 ]
  @ [ Alcotest.test_case "golden deep queue" `Quick test_flood ]

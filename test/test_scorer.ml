(* Differential tests for the compiled placement scorer ([Eval.compile] /
   [Eval.score]) and the exhaustive searches built on it.  The reference
   search is the straightforward one: Heap's algorithm over the non-entry
   blocks, each candidate a fresh array scored by [Eval.taken_transfers].
   It visits candidates in the same order as [Algorithms.exhaustive], so
   the two must agree on the placement (ties go to the first candidate
   found) and on its score, bit for bit. *)

module Cfg = Cfgir.Cfg
module Freq = Cfgir.Freq
module Eval = Layout.Eval
module Algorithms = Layout.Algorithms
module Placement = Layout.Placement
module P = Codetomo.Pipeline

let reference_exhaustive ~better freq =
  let cfg = Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  if n <= 1 then Placement.natural cfg
  else begin
    let rest = Array.init (n - 1) (fun i -> i + 1) in
    let best = ref (Placement.natural cfg) in
    let best_score = ref (Eval.taken_transfers freq !best) in
    let consider () =
      let candidate = Array.append [| 0 |] rest in
      let score = Eval.taken_transfers freq candidate in
      if better score !best_score then begin
        best := candidate;
        best_score := score
      end
    in
    let swap i j =
      let t = rest.(i) in
      rest.(i) <- rest.(j);
      rest.(j) <- t
    in
    let rec permute k =
      if k = 1 then consider ()
      else
        for i = 0 to k - 1 do
          permute (k - 1);
          if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
        done
    in
    permute (n - 1);
    !best
  end

let hex = Printf.sprintf "%h"

let show p = String.concat " " (Array.to_list (Array.map string_of_int p))

let check_search ~what ~reference ~fast freq =
  let expected = reference freq and got = fast freq in
  Alcotest.(check string) (what ^ " placement") (show expected) (show got);
  Alcotest.(check string)
    (what ^ " score")
    (hex (Eval.taken_transfers freq expected))
    (hex (Eval.taken_transfers freq got))

let check_both ~label freq =
  check_search ~what:(label ^ " optimal")
    ~reference:(reference_exhaustive ~better:(fun a b -> a < b))
    ~fast:(fun f -> Algorithms.optimal f)
    freq;
  check_search ~what:(label ^ " pessimal")
    ~reference:(reference_exhaustive ~better:(fun a b -> a > b))
    ~fast:(fun f -> Algorithms.pessimal f)
    freq

let small_procs (w : Workloads.t) =
  Cfg.of_program (Workloads.compiled w).Mote_lang.Compile.program
  |> List.filter (fun cfg -> Cfg.num_blocks cfg <= 9)

(* Edge weights from a few repeated small integers (ties between
   candidates) mixed with arbitrary reals (where the order of the float
   additions shows in the last bits). *)
let random_freq rng cfg =
  let f = Freq.create cfg ~invocations:100.0 in
  List.iter
    (fun (src, dst, kind) ->
      let w =
        if Stats.Rng.bool rng then float_of_int (Stats.Rng.int rng 4)
        else Stats.Rng.float rng 100.0
      in
      Freq.bump f ~src ~dst ~kind w)
    (Cfg.edges cfg);
  f

let test_oracle_freqs () =
  List.iter
    (fun (w : Workloads.t) ->
      let small = List.map (fun cfg -> cfg.Cfg.proc.Mote_isa.Program.name) (small_procs w) in
      List.iter
        (fun seed ->
          let run = P.profile ~config:{ P.default_config with seed } w in
          List.iter
            (fun (proc, freq) ->
              if List.mem proc small then
                check_both
                  ~label:(Printf.sprintf "%s/%s s%d" w.Workloads.name proc seed)
                  freq)
            run.P.oracle_freqs)
        [ 42; 7 ])
    Workloads.all

let test_random_freqs () =
  let rng = Stats.Rng.create 2024 in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun cfg ->
          for trial = 1 to 4 do
            check_both
              ~label:
                (Printf.sprintf "%s/%s random %d" w.Workloads.name
                   cfg.Cfg.proc.Mote_isa.Program.name trial)
              (random_freq rng cfg)
          done)
        (small_procs w))
    Workloads.all

(* The scorer itself, on every procedure (any size) and random valid
   placements, under both prediction policies. *)
let test_score_matches_evaluate () =
  let rng = Stats.Rng.create 77 in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun cfg ->
          let freq = random_freq rng cfg in
          let n = Cfg.num_blocks cfg in
          List.iter
            (fun policy ->
              let scorer = Eval.compile ~policy freq in
              for _ = 1 to 20 do
                let p = Placement.natural cfg in
                let rest = Array.sub p 1 (Stdlib.max 0 (n - 1)) in
                Stats.Rng.shuffle rng rest;
                Array.blit rest 0 p 1 (Array.length rest);
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s" w.Workloads.name cfg.Cfg.proc.Mote_isa.Program.name)
                  (hex (Eval.taken_transfers ~policy freq p))
                  (hex (Eval.score scorer p))
              done)
            [ Eval.Not_taken; Eval.Btfn ])
        (Cfg.of_program (Workloads.compiled w).Mote_lang.Compile.program))
    Workloads.all

let suite =
  [
    Alcotest.test_case "exhaustive = reference (oracle freqs)" `Quick test_oracle_freqs;
    Alcotest.test_case "exhaustive = reference (random freqs, ties)" `Quick test_random_freqs;
    Alcotest.test_case "score = evaluate (random placements)" `Quick
      test_score_matches_evaluate;
  ]

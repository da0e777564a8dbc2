module Cfg = Cfgir.Cfg
module Isa = Mote_isa.Isa

type policy = Not_taken | Btfn

type report = {
  taken_transfers : float;
  considered : float;
  taken_rate : float;
  bridge_jumps : int;
  size_words : int;
}

let jmp_words = Isa.size (Isa.Jmp 0)

(* Stall mass of one emitted conditional branch: [w_takes] executions take
   it, [w_falls] fall through.  Under BTFN a backward branch (target at or
   before the branch's own block — the branch instruction sits at the
   block's end, so a self-loop is backward too) is predicted taken. *)
let branch_stall policy ~src_pos ~target_pos ~w_takes ~w_falls =
  match policy with
  | Not_taken -> w_takes
  | Btfn -> if target_pos <= src_pos then w_falls else w_takes

let evaluate ?(policy = Not_taken) freq placement =
  let cfg = Cfgir.Freq.cfg freq in
  Placement.validate cfg placement;
  let pos = Placement.position_of placement in
  let n = Cfg.num_blocks cfg in
  let next id = if pos.(id) + 1 < n then Some placement.(pos.(id) + 1) else None in
  let taken = ref 0.0 and considered = ref 0.0 in
  let bridges = ref 0 in
  let size = ref 0 in
  for id = 0 to n - 1 do
    let b = Cfg.block cfg id in
    size := !size + b.Cfg.size_words;
    let adjacent dst = next id = Some dst in
    match b.Cfg.term with
    | Cfg.T_branch (_, tdst, fdst) ->
        let wt = Cfgir.Freq.get freq ~src:id ~dst:tdst ~kind:Cfg.K_taken in
        let wf = Cfgir.Freq.get freq ~src:id ~dst:fdst ~kind:Cfg.K_fall in
        let stall = branch_stall policy ~src_pos:pos.(id) in
        if adjacent fdst then begin
          (* Branch kept: takes wt times, to tdst. *)
          taken := !taken +. stall ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf;
          considered := !considered +. wt +. wf
        end
        else if adjacent tdst then begin
          (* Condition flipped: takes wf times, to fdst. *)
          taken := !taken +. stall ~target_pos:pos.(fdst) ~w_takes:wf ~w_falls:wt;
          considered := !considered +. wt +. wf
        end
        else begin
          (* Branch to the taken target plus a bridging jump to the fall
             target: the jump is itself an always-stalling transfer. *)
          taken :=
            !taken +. stall ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf +. wf;
          considered := !considered +. wt +. wf +. wf;
          incr bridges;
          size := !size + jmp_words
        end
    | Cfg.T_jump dst ->
        let w = Cfgir.Freq.get freq ~src:id ~dst ~kind:Cfg.K_jump in
        if adjacent dst then size := !size - jmp_words
        else begin
          taken := !taken +. w;
          considered := !considered +. w
        end
    | Cfg.T_fall dst ->
        let w = Cfgir.Freq.get freq ~src:id ~dst ~kind:Cfg.K_fall in
        if not (adjacent dst) then begin
          taken := !taken +. w;
          considered := !considered +. w;
          incr bridges;
          size := !size + jmp_words
        end
    | Cfg.T_ret | Cfg.T_halt -> ()
  done;
  {
    taken_transfers = !taken;
    considered = !considered;
    taken_rate = (if !considered > 0.0 then !taken /. !considered else 0.0);
    bridge_jumps = !bridges;
    size_words = !size;
  }

let taken_transfers ?policy freq placement = (evaluate ?policy freq placement).taken_transfers

(* The scorer reads every block's terminator and edge weights once, into
   flat arrays; [score] then replays [evaluate]'s taken-transfer sum —
   same blocks, same branch cases, same additions in the same order — so
   its result has the same bits. *)
type terminator = Stop (* ret/halt *) | Branch | Edge (* jump or fall *)

type scorer = {
  btfn : bool;
  kind : terminator array;
  dst : int array; (* branch: taken target; jump/fall: destination *)
  alt : int array; (* branch: fall target *)
  w : float array; (* branch: taken-edge weight; jump/fall: edge weight *)
  w_alt : float array; (* branch: fall-edge weight *)
  pos : int array; (* scratch: position of each block in the candidate *)
}

let compile ?(policy = Not_taken) freq =
  let cfg = Cfgir.Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  let s =
    {
      btfn = (match policy with Btfn -> true | Not_taken -> false);
      kind = Array.make n Stop;
      dst = Array.make n 0;
      alt = Array.make n 0;
      w = Array.make n 0.0;
      w_alt = Array.make n 0.0;
      pos = Array.make n 0;
    }
  in
  for id = 0 to n - 1 do
    match (Cfg.block cfg id).Cfg.term with
    | Cfg.T_branch (_, tdst, fdst) ->
        s.kind.(id) <- Branch;
        s.dst.(id) <- tdst;
        s.alt.(id) <- fdst;
        s.w.(id) <- Cfgir.Freq.get freq ~src:id ~dst:tdst ~kind:Cfg.K_taken;
        s.w_alt.(id) <- Cfgir.Freq.get freq ~src:id ~dst:fdst ~kind:Cfg.K_fall
    | Cfg.T_jump dst ->
        s.kind.(id) <- Edge;
        s.dst.(id) <- dst;
        s.w.(id) <- Cfgir.Freq.get freq ~src:id ~dst ~kind:Cfg.K_jump
    | Cfg.T_fall dst ->
        s.kind.(id) <- Edge;
        s.dst.(id) <- dst;
        s.w.(id) <- Cfgir.Freq.get freq ~src:id ~dst ~kind:Cfg.K_fall
    | Cfg.T_ret | Cfg.T_halt -> ()
  done;
  s

let score s placement =
  let n = Array.length s.pos in
  if Array.length placement <> n then invalid_arg "Eval.score: wrong length";
  let pos = s.pos in
  for i = 0 to n - 1 do
    pos.(placement.(i)) <- i
  done;
  let taken = ref 0.0 in
  for id = 0 to n - 1 do
    let src_pos = pos.(id) in
    let next = if src_pos + 1 < n then placement.(src_pos + 1) else -1 in
    match s.kind.(id) with
    | Branch ->
        let tdst = s.dst.(id) and fdst = s.alt.(id) in
        let wt = s.w.(id) and wf = s.w_alt.(id) in
        (* [branch_stall], written out so no float is boxed. *)
        if next = fdst then
          taken := !taken +. if s.btfn && pos.(tdst) <= src_pos then wf else wt
        else if next = tdst then
          taken := !taken +. if s.btfn && pos.(fdst) <= src_pos then wt else wf
        else
          taken := !taken +. (if s.btfn && pos.(tdst) <= src_pos then wf else wt) +. wf
    | Edge -> if next <> s.dst.(id) then taken := !taken +. s.w.(id)
    | Stop -> ()
  done;
  !taken

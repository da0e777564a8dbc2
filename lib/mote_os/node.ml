module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices

type task_source =
  | Boot
  | Periodic of { period : int; offset : int }
  | On_radio_rx

type task = { proc : string; source : task_source }

type run_stats = {
  tasks_run : (string * int) list;
  tasks_dropped : int;
  packets_delivered : int;
  total_cycles : int;
  idle_cycles : int;
  busy_cycles : int;
}

let invocations stats proc = Option.value ~default:0 (List.assoc_opt proc stats.tasks_run)

type timer_state = { mutable next_fire : int; period : int; timer_task : int }

(* Tasks are identified by the index of their procedure in [task_names]
   (the distinct task procedures, sorted), so the queue, the counters and
   the dispatch never hash or compare a name. *)
type t = {
  machine : Machine.t;
  env : Env.t;
  task_names : string array;
  task_entries : int array;  (* entry address of each task procedure *)
  run_counts : int array;
  (* FIFO of task indices: [queued] slots of [ring] from [head], wrapping.
     The ring grows on demand, so a large capacity costs nothing up front. *)
  mutable ring : int array;
  mutable head : int;
  mutable queued : int;
  queue_capacity : int;
  timers : timer_state array;
  radio_tasks : int array;
  (* Radio arrivals are generated lazily in chunks up to this cycle. *)
  mutable radio_horizon : int;
  (* Sorted by arrival cycle: each chunk is generated in increasing time
     and starts where the previous one ended, so the due arrivals are
     always a prefix. *)
  mutable radio_pending : (int * int) list;
  (* Accumulated statistics. *)
  mutable dropped : int;
  mutable packets : int;
  mutable idle_cycles : int;
  created_at_cycles : int;
  mutable tx_drained : int;
}

let radio_chunk = 1 lsl 17

let push t task =
  let size = Array.length t.ring in
  if t.queued = size then begin
    let ring = Array.make (2 * size) 0 in
    for i = 0 to size - 1 do
      ring.(i) <- t.ring.((t.head + i) mod size)
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.queued) mod Array.length t.ring) <- task;
  t.queued <- t.queued + 1

let create ~machine ~env ~tasks ?(queue_capacity = 16) () =
  if queue_capacity <= 0 then invalid_arg "Node.create: queue capacity must be positive";
  let program = Machine.program machine in
  let entry proc =
    match Mote_isa.Program.find_proc program proc with
    | Some info -> info.Mote_isa.Program.entry
    | None -> invalid_arg (Printf.sprintf "Node.create: no procedure %S in binary" proc)
  in
  List.iter (fun { proc; _ } -> ignore (entry proc)) tasks;
  let task_names =
    Array.of_list (List.sort_uniq String.compare (List.map (fun { proc; _ } -> proc) tasks))
  in
  let index proc =
    let rec find i = if String.equal task_names.(i) proc then i else find (i + 1) in
    find 0
  in
  Env.attach env (Machine.devices machine);
  (* Boot-time global initialization, if the compiler emitted one. *)
  (match Mote_isa.Program.find_proc program Mote_lang.Compile.init_proc_name with
  | Some _ -> ignore (Machine.run_proc machine Mote_lang.Compile.init_proc_name)
  | None -> ());
  let timers =
    List.filter_map
      (fun { proc; source } ->
        match source with
        | Periodic { period; offset } ->
            if period <= 0 then invalid_arg "Node.create: period must be positive";
            Some { next_fire = offset; period; timer_task = index proc }
        | Boot | On_radio_rx -> None)
      tasks
  in
  let radio_tasks =
    List.filter_map
      (fun { proc; source } -> match source with On_radio_rx -> Some (index proc) | _ -> None)
      tasks
  in
  let t =
    {
      machine;
      env;
      task_names;
      task_entries = Array.map entry task_names;
      run_counts = Array.make (Array.length task_names) 0;
      ring = Array.make (Stdlib.min queue_capacity 16) 0;
      head = 0;
      queued = 0;
      queue_capacity;
      timers = Array.of_list timers;
      radio_tasks = Array.of_list radio_tasks;
      radio_horizon = 0;
      radio_pending = [];
      dropped = 0;
      packets = 0;
      idle_cycles = 0;
      created_at_cycles = Machine.cycles machine;
      tx_drained = 0;
    }
  in
  (* Boot posts bypass the capacity check. *)
  List.iter
    (fun { proc; source } -> match source with Boot -> push t (index proc) | _ -> ())
    tasks;
  t

let machine t = t.machine

let cycles t = Machine.cycles t.machine

let post t task =
  if t.queued >= t.queue_capacity then t.dropped <- t.dropped + 1 else push t task

let take t =
  let task = t.ring.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.queued <- t.queued - 1;
  task

(* Extend the pre-generated radio arrival schedule to cover [upto]. *)
let extend_radio t upto =
  while t.radio_horizon <= upto do
    let from_cycle = t.radio_horizon in
    let to_cycle = t.radio_horizon + radio_chunk in
    let arrivals = Env.radio_arrivals t.env ~from_cycle ~to_cycle in
    t.radio_pending <- t.radio_pending @ arrivals;
    t.radio_horizon <- to_cycle
  done

let inject_packet t payload =
  Devices.radio_push_rx (Machine.devices t.machine) payload;
  t.packets <- t.packets + 1;
  for i = 0 to Array.length t.radio_tasks - 1 do
    post t t.radio_tasks.(i)
  done

(* Deliver every event with a timestamp <= now: all due timer ticks
   first, then the due radio arrivals in arrival order. *)
let deliver_due t now =
  for i = 0 to Array.length t.timers - 1 do
    let timer = t.timers.(i) in
    while timer.next_fire <= now do
      post t timer.timer_task;
      timer.next_fire <- timer.next_fire + timer.period
    done
  done;
  extend_radio t now;
  let rec pop = function
    | (at, payload) :: future when at <= now ->
        inject_packet t payload;
        pop future
    | future -> t.radio_pending <- future
  in
  pop t.radio_pending

let drain_tx t =
  let devices = Machine.devices t.machine in
  let fresh = Devices.tx_since devices t.tx_drained in
  t.tx_drained <- Devices.tx_count devices;
  fresh

let next_event_time t =
  let next = ref max_int in
  for i = 0 to Array.length t.timers - 1 do
    next := Stdlib.min !next t.timers.(i).next_fire
  done;
  match t.radio_pending with (at, _) :: _ -> Stdlib.min !next at | [] -> !next

let run ?(fuel_per_task = 2_000_000) t ~until =
  let continue = ref true in
  while !continue && Machine.cycles t.machine < until do
    let now = Machine.cycles t.machine in
    deliver_due t now;
    if t.queued > 0 then begin
      let task = take t in
      ignore (Machine.run_entry ~fuel:fuel_per_task t.machine t.task_entries.(task));
      t.run_counts.(task) <- t.run_counts.(task) + 1
    end
    else begin
      extend_radio t (Stdlib.min until (now + radio_chunk));
      let next = next_event_time t in
      if next = max_int || next >= until then begin
        (* Nothing left to do before the deadline: sleep through it. *)
        t.idle_cycles <- t.idle_cycles + (until - now);
        Machine.idle t.machine (until - now);
        continue := false
      end
      else begin
        t.idle_cycles <- t.idle_cycles + (next - now);
        Machine.idle t.machine (next - now)
      end
    end
  done;
  let total_cycles = Machine.cycles t.machine - t.created_at_cycles in
  let ran = ref [] in
  Array.iteri
    (fun task n -> if n > 0 then ran := (t.task_names.(task), n) :: !ran)
    t.run_counts;
  {
    tasks_run = List.sort compare !ran;
    tasks_dropped = t.dropped;
    packets_delivered = t.packets;
    total_cycles;
    idle_cycles = t.idle_cycles;
    busy_cycles = total_cycles - t.idle_cycles;
  }

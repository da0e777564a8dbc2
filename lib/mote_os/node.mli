(** A simulated sensor node: TinyOS-style run-to-completion tasks over the
    CT16 machine, driven by timer and radio events from an environment.

    Time is the machine's cycle counter.  Tasks are procedure names in the
    loaded binary; each execution is one procedure invocation — exactly
    the unit Code Tomography times.  The task queue is bounded (TinyOS
    posts fail when the queue is full); drops are counted, not fatal. *)

type task_source =
  | Boot  (** Posted once when the node starts. *)
  | Periodic of { period : int; offset : int }
      (** Posted every [period] cycles, first at [offset]. *)
  | On_radio_rx
      (** Posted once per arriving packet (payload is queued on the radio
          device before the task runs). *)

type task = { proc : string; source : task_source }

type run_stats = {
  tasks_run : (string * int) list;  (** Invocation count per procedure. *)
  tasks_dropped : int;
  packets_delivered : int;
  total_cycles : int;
  idle_cycles : int;
  busy_cycles : int;
}

val invocations : run_stats -> string -> int

type t

val create :
  machine:Mote_machine.Machine.t ->
  env:Env.t ->
  tasks:task list ->
  ?queue_capacity:int ->
  unit ->
  t
(** Attaches the environment's sensors to the machine's devices and runs
    the compiled [__init] procedure if the binary has one.  Default queue
    capacity 16.
    @raise Invalid_argument if a task names a procedure missing from the
    binary. *)

val machine : t -> Mote_machine.Machine.t

val run : ?fuel_per_task:int -> t -> until:int -> run_stats
(** Execute until the cycle clock reaches [until] (tasks run to
    completion, so the clock may overshoot by the last task's length).
    Can be called repeatedly to extend a run; statistics accumulate from
    node creation.

    {b Delivery order.}  Before each task starts, every event due by the
    current cycle is posted: first every due timer tick (timers in task
    order, each as many times as it fell due), then every due radio
    arrival in arrival order.  This is not global time order: when a long
    task delays the scheduler past both a radio arrival and a later timer
    tick, the timer's task is queued first.  A placement that changes task
    lengths can therefore swap two tasks on a workload that mixes both
    sources (ctp).  The order is kept on purpose: time-ordered delivery
    would change every recorded run of such a workload. *)

val cycles : t -> int
(** The node's current cycle clock. *)

val inject_packet : t -> int -> unit
(** Deliver one inbound payload word from outside the node (another node's
    transmission, routed by {!Network}): queues it on the radio device and
    posts every [On_radio_rx] task. *)

val drain_tx : t -> int list
(** Words the node transmitted since the last drain (oldest first), in
    time proportional to their number. *)

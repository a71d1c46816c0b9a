(** Cycle-accurate interpreter for IR modules — the "RTL simulation"
    level of the flow.  The design is flattened on creation.

    Activity-based scheduling: combinational processes are ordered
    statically so writers run before readers (a cross-process cycle
    raises {!Combinational_loop} naming the offending process), and a
    settle runs only the processes whose inputs changed since the last
    settle — each at most once when the graph is acyclic.  Synchronous
    processes execute against private snapshots of just the variables
    they can observe, taken before any of them runs, so all of them see
    the same pre-edge state; their register writes then commit and
    combinational logic settles again. *)

type t

exception Combinational_loop of string

val create : Ir.module_def -> t

val set_input : t -> string -> Bitvec.t -> unit
(** Raises [Not_found] for unknown ports, [Invalid_argument] on width
    mismatch or non-input ports. *)

val set_input_int : t -> string -> int -> unit
val get : t -> string -> Bitvec.t
(** Value of any port by name. *)

val get_int : t -> string -> int
val peek_var : t -> Ir.var -> Bitvec.t
(** Value of an internal variable (post-flatten name resolution is the
    caller's concern; variables keep their identity through builder
    construction). *)

val peek_array : t -> Ir.var -> Bitvec.t array

val settle : t -> unit
(** Combinational settle without a clock edge. *)

val step : t -> unit
(** One full clock cycle. *)

val run : t -> int -> unit
(** [run t n] steps [n] cycles. *)

val cycles : t -> int
val design : t -> Ir.module_def
(** The flattened design being simulated. *)

(** {1 Activity counters}

    Per-instance equivalents of the global [Metrics.Perf] counters
    [rtl_sim.settles] / [rtl_sim.process_runs] / [rtl_sim.process_skips]. *)

val settles : t -> int
(** Number of combinational settles performed so far. *)

val comb_runs : t -> int
(** Combinational process activations actually executed. *)

val comb_skips : t -> int
(** Combinational process activations skipped because no input of the
    process had changed since its last run. *)

val sync_runs : t -> int
(** Synchronous process activations executed so far. *)

val process_activity : t -> (string * int) list
(** Activations per process (combinational evaluations plus synchronous
    runs), sorted by hierarchical process name — the raw material of the
    "hot processes" profile. *)

(** {1 Observation tap} *)

val find_var : t -> string -> Ir.var option
(** Look up a port or local of the flattened design by hierarchical
    name ([u_i2c.slot]); use with {!peek_var}.  Arrays are found too —
    peek those with {!peek_array}. *)

val observe : t -> (string array -> Cover.Tap.t) -> unit
(** Subscribe to the per-cycle changes of every bit of every scalar
    port and local of the flattened design (arrays/memories are not
    tracked): the factory receives the slot names ([var] or [var[i]],
    hierarchical), and its tap is told each bit whose committed value
    moved since the previous step's close, then [cycle_end].  Change
    detection rides the scheduler's dirty marking; before the first
    [observe] it costs one branch per dirty-marking. *)

val on_step : t -> (t -> unit) -> unit
(** Subscribe a watcher called after every completed {!step} (post
    settle), in subscription order with the other subscribers — the
    hook FSM coverage sampling and attached assertion monitors use.  It
    observes no slots. *)

val enable_toggle_cover : t -> unit
(** Subscribe one {!Cover.Toggle} collector through {!observe}.
    Idempotent. *)

val toggle_cover : t -> Cover.Toggle.t option
(** The collector {!enable_toggle_cover} subscribed. *)

(** {1 Causal events and checkpointing} *)

val enable_events : t -> unit
(** Start emitting causal events into the global [Obs.Event] log
    (enabling it if needed): {!set_input} edges as [Stimulus], process
    activations as [Process_run] caused by the latest change among the
    variables the process observes (the dirty-set propagation), and
    committed writes as [Var_change] caused by the activation.  Costs
    one branch per candidate event while off. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep copy of the simulation state (environment, dirty set, cycle
    count).  Subscribers are not captured. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint taken on the same simulator; re-running the
    original stimulus afterwards is bit-identical to the original
    window. *)

val checkpoint_cycle : checkpoint -> int

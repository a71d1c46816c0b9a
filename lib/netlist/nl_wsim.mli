(** Word-parallel gate-level simulator: [lanes] independent two-valued
    simulations advance together, packed bitwise into native ints (one
    word op per gate per {!Sys.int_size} lanes).  Flip-flops power up
    at 0 in every lane.

    Lane 0 is bit-identical to the scalar {!Nl_sim} under the same
    broadcast stimulus — same output values, same net changes reported
    to {!observe} subscribers, cycle for cycle, in both scheduling
    modes.  The extra lanes carry independent stimulus streams
    ({!set_input_lane}, {!set_input_packed}), per-lane stuck-at faults
    ({!inject_stuck_at}) for lane-parallel fault campaigns, and
    per-lane subscribers, so one run yields one {!Cover.Toggle.t} per
    seed.

    Scheduling (topological order, levels, fanout, dirty buckets) is
    shared with {!Nl_sim} through {!Nl_sim.Sched}; in event-driven mode
    a cell re-evaluates when {e any} lane of an input moved. *)

type t

type mode =
  | Event_driven  (** dirty-set propagation (default) *)
  | Full_eval  (** every combinational cell, every settle (reference) *)

val lane_bits : int
(** Lanes packed per machine word ([Sys.int_size]: 63 on 64-bit). *)

val create : ?mode:mode -> lanes:int -> Netlist.t -> t
(** Checks and levelizes the netlist; raises
    {!Nl_sim.Combinational_loop} on a combinational cycle and
    [Invalid_argument] when [lanes < 1]. *)

val lanes : t -> int

val netlist : t -> Netlist.t
(** The simulated netlist. *)

(** {1 Stimulus}

    All drive calls follow {!Nl_sim} semantics: in event-driven mode a
    changed net wakes its readers, in full-eval mode the value is just
    written.  Lane arguments are validated against [lanes]. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Broadcast: every lane sees the same port value. *)

val set_input_int : t -> string -> int -> unit

val set_input_lane : t -> lane:int -> string -> Bitvec.t -> unit
(** Drive one lane only; other lanes keep their values. *)

val set_input_packed : t -> string -> Bitvec.t array -> unit
(** Distinct per-lane stimulus in one call: element [i] of the array
    holds bit [i] of the port for every lane (width [lanes]) — i.e.
    [set_input_packed t p (Bitvec.transpose per_lane_values)]. *)

(** {1 Observation} *)

val get_output : ?lane:int -> t -> string -> Bitvec.t
(** The port value seen by [lane] (default 0, the golden lane). *)

val get_output_int : ?lane:int -> t -> string -> int

val get_output_packed : t -> string -> Bitvec.t array
(** Inverse of {!set_input_packed}: bit [i] of the port across all
    lanes, per port bit ([Bitvec.transpose] recovers per-lane values). *)

val diverging_lanes : t -> string -> int list
(** Lanes whose current value of output [port] differs from lane 0, in
    ascending order — the per-cycle detection primitive of the
    lane-parallel fault campaign ([Equiv.fault_campaign]).  Computed on
    the packed words (one xor per word per port bit), never unpacking
    lanes. *)

(** {1 Execution} *)

val settle : t -> unit
(** Propagate combinational logic only. *)

val step : t -> unit
(** One clock cycle in every lane: settle, commit flip-flops, settle. *)

val run : t -> int -> unit

(** {1 Fault injection}

    Per-lane stuck-at forces: any value written to [net] in [lane] is
    overridden, which models a stuck-at fault at the driver output.
    Lane 0 is conventionally kept fault-free as the golden reference,
    but nothing enforces that. *)

val inject_stuck_at : t -> lane:int -> net:Netlist.net -> value:bool -> unit
(** Takes effect immediately (also on input and flip-flop nets) and
    persists for the rest of the run. *)

val faults : t -> int
(** Number of injected faults. *)

(** {1 Counters} *)

val cycles : t -> int

val gate_evals : t -> int
(** Cell evaluations (each one advances all lanes). *)

val cells_skipped : t -> int
val comb_cells : t -> int
val dff_cells : t -> int
val full_settles : t -> int

(** {1 Observation tap} *)

val observe : t -> lane:int -> (string array -> Cover.Tap.t) -> unit
(** Subscribe to one lane's per-cycle net changes, exactly as
    {!Nl_sim.observe} (slot [n] is net [n], labels from
    {!Nl_sim.Sched.net_labels}).  Subscribing a collector per lane
    turns a run with per-lane seeds into that many seeds' worth of
    coverage; merge them via [Cover.Db.merge] for the multi-seed union.
    While no lane has a subscriber a step does no change bookkeeping.
    Raises [Invalid_argument] for an out-of-range lane. *)

(** {1 Causal events and checkpointing} *)

val enable_events : t -> unit
(** Start emitting causal events into the global [Obs.Event] log
    (enabling it if needed).  Events describe the packed simulation as
    a whole: net changes carry lane [-1] (aggregate over all lanes) and
    the lane-0 bit as their value, caused by the latest change among
    the evaluated cell's input nets; stimulus drives are [Stimulus];
    {!inject_stuck_at} additionally records a [Fault] event on the
    forced net carrying the real lane number.  Fully supported in
    [Event_driven] mode; [Full_eval] records no change causality.
    Costs one branch per changed net while off. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep copy of the packed net values, scheduler state and cycle
    count.  Fault forces and subscribers are not
    captured — a restore keeps whatever faults are currently armed. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint taken on the same simulator; re-running the
    original stimulus afterwards is bit-identical in every lane. *)

val checkpoint_cycle : checkpoint -> int

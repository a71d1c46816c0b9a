(** Two-valued gate-level simulator — the "conventional RTL simulator"
    stand-in for the paper's simulation-speed comparison, and the one
    gate-level engine of the repository.  Flip-flops power up at 0.

    Every net carries [lanes] independent simulations packed bitwise
    into native ints, one word op per gate per {!lane_bits} lanes.  A
    scalar simulation is simply the 1-lane instance ([create nl]); the
    extra lanes of a wider one carry independent stimulus streams
    ({!set_input_lane}, {!set_input_packed}), per-lane stuck-at faults
    ({!inject_stuck_at}) for lane-parallel fault campaigns, and
    per-lane subscribers, so one run yields one {!Cover.Toggle.t} per
    seed.  Features that describe a single simulation — {!net_value},
    {!probes}, {!enable_toggle_cover}, causal event values — read lane
    0; the [nl_sim.settle]/[nl_sim.step] spans and the
    [nl_sim.evals_per_settle]/[nl_sim.nets_touched_per_step] histograms
    are recorded by 1-lane instances only.  The [nl_sim.*] Perf
    counters count evaluations, each of which advances every lane.

    The default {!Event_driven} mode is activity-based: cells are
    levelized at creation, each net knows its combinational readers, and
    a settle re-evaluates only cells where some lane of an input
    toggled (one ascending sweep over the dirty levels).  {!Full_eval}
    retains the evaluate-everything behaviour as a bit-identical
    reference — both modes produce the same output values and report
    the same net changes to {!observe} subscribers, cycle for cycle, in
    every lane. *)

type t

type mode =
  | Event_driven  (** dirty-set propagation (default) *)
  | Full_eval  (** every combinational cell, every settle (reference) *)

exception Combinational_loop of { module_name : string; net : int }
(** A combinational cycle through [net] in the named design — the
    gate-level counterpart of {!Rtl_sim.Combinational_loop}. *)

val lane_bits : int
(** Lanes packed per machine word ([Sys.int_size]: 63 on 64-bit). *)

val create : ?mode:mode -> ?lanes:int -> Netlist.t -> t
(** [lanes] defaults to 1.  Checks the netlist and levelizes it; raises
    {!Combinational_loop} naming the offending net on a combinational
    cycle and [Invalid_argument] when [lanes < 1]. *)

(** The static scheduling structure: topological order, levels,
    per-net combinational fanout and the port-name tables.  Building it
    checks the netlist and raises {!Combinational_loop} on a
    combinational cycle. *)
module Sched : sig
  type t = {
    order : Netlist.cell array;  (** combinational cells, topological *)
    dffs : Netlist.cell array;
    level : int array;  (** logic depth per index into [order] *)
    fanout : int array array;  (** net -> indices into [order] reading it *)
    n_levels : int;
    in_nets : (string, Netlist.net array) Hashtbl.t;
    out_nets : (string, Netlist.net array) Hashtbl.t;
  }

  val build : Netlist.t -> t

  val net_labels : Netlist.t -> string array
  (** Human-readable per-net labels: port bits as ["bus[i]"] (bare name
      for width-1 ports), internal nets by their hierarchical
      description from lowering ({!Netlist.describe_net}, e.g.
      ["u_hist.count[3]"]), remaining anonymous nets as ["n<id>"]. *)
end

val lanes : t -> int

val netlist : t -> Netlist.t
(** The simulated netlist. *)

(** {1 Stimulus}

    In event-driven mode a changed net wakes its readers, in full-eval
    mode the value is just written.  Lane arguments are validated
    against [lanes]. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Broadcast: every lane sees the same port value. *)

val set_input_int : t -> string -> int -> unit
(** Broadcast the low bits of a two's-complement int. *)

val set_input_lane : t -> lane:int -> string -> Bitvec.t -> unit
(** Drive one lane only; other lanes keep their values. *)

val set_input_packed : t -> string -> Bitvec.t array -> unit
(** Distinct per-lane stimulus in one call: element [i] of the array
    holds bit [i] of the port for every lane (width [lanes]) — i.e.
    [set_input_packed t p (Bitvec.transpose per_lane_values)]. *)

type port
(** A prebound input port: {!set_input_int} pays a hash lookup per
    call, stimulus loops driving the same port every cycle bind it once
    and drive through the handle.  Handles carry only netlist
    structure, so one is valid for any simulator over the same
    netlist. *)

val in_port : t -> string -> port
(** Raises [Not_found] for an unknown input port. *)

val drive_port_int : t -> port -> int -> unit
(** {!set_input_int} without the name lookup (and no allocation). *)

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

val net_value : t -> Netlist.net -> bool
(** Current lane-0 value of one net (read-only observation point). *)

val probes : t -> (string * Netlist.net) list
(** Hinted internal nets as hierarchical observation points, sorted by
    name ({!Netlist.describe_net}, e.g. ["u_hist.count[3]"]).  Port
    nets are excluded — they are observable under their port names. *)

(** {1 Execution} *)

val settle : t -> unit
(** Propagate combinational logic only. *)

val step : t -> unit
(** One clock cycle in every lane: settle, commit flip-flops, settle. *)

val run : t -> int -> unit

(** {1 Counters} *)

val cycles : t -> int

val gate_evals : t -> int
(** Total gate evaluations so far (simulation-cost metric); each one
    advances every lane. *)

val cells_skipped : t -> int
(** Combinational evaluations avoided relative to a full settle
    (always 0 in {!Full_eval} mode). *)

val comb_cells : t -> int
(** Number of combinational cells in the design. *)

val dff_cells : t -> int
(** Number of flip-flops in the design. *)

val full_settles : t -> int
(** Settles that evaluated every combinational cell: all of them in
    {!Full_eval} mode, only the forced initial pass in
    {!Event_driven} mode. *)

(** {1 Activity profiling}

    Per-cell evaluation counts cost one increment per gate evaluation
    and are therefore off until {!enable_profile}.  Per-net switching
    activity comes from an {!observe} subscriber. *)

val enable_profile : t -> unit
(** Start counting evaluations per combinational cell. *)

val profiling : t -> bool

val cell_activity : t -> (string * int) list
(** Evaluations per combinational cell, most evaluated first,
    labelled ["<out-net>:<kind>"].  Empty unless {!enable_profile}
    was called before simulation. *)

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

(** {1 Observation tap} *)

val observe : ?lane:int -> t -> (string array -> Cover.Tap.t) -> unit
(** Subscribe to one lane's (default 0) per-cycle net changes: the
    factory receives the per-net labels ({!Sched.net_labels}; slot [n]
    is net [n]) and its tap is then told, at the end of every {!step},
    each net whose value in that lane differs from the one before the
    clock edge, followed by one [cycle_end].  Both modes report
    identical streams.  Subscribing a collector per lane turns a run
    with per-lane seeds into that many seeds' worth of coverage; merge
    them via [Cover.Db.merge] for the multi-seed union.  With no
    subscriber a step does no change bookkeeping at all.  Subscribers
    are never removed.  Raises [Invalid_argument] for an out-of-range
    lane. *)

val enable_toggle_cover : t -> unit
(** Subscribe one {!Cover.Toggle} collector over all nets of lane 0
    (directional 0->1 / 1->0 edges).  Idempotent. *)

val toggle_cover : t -> Cover.Toggle.t option
(** The collector {!enable_toggle_cover} subscribed. *)

(** {1 Causal events and checkpointing} *)

val enable_events : t -> unit
(** Start emitting causal events into the global [Obs.Event] log
    (enabling it if needed): input edges as [Stimulus], net changes as
    [Net_change] caused by the latest change among the evaluated
    cell's input nets (fanout propagation made explicit), flip-flop
    commits caused by the change that last moved the D input.  Events
    describe the simulation as a whole: they carry the lane-0 bit as
    their value and no lane, except the [Fault] event
    {!inject_stuck_at} records with the real lane number.  Net
    subjects are the hierarchical {!Sched.net_labels}.  Fully
    supported in [Event_driven] mode; [Full_eval] re-evaluates
    everything per settle and records no change causality.  Costs one
    branch per changed net while off. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep copy of the packed net values, scheduler state and cycle
    count.  Subscribers, profiles and fault forces are not captured — a
    restore keeps whatever faults are currently armed. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint taken on the same simulator; re-running the
    original stimulus afterwards is bit-identical in every lane. *)

val checkpoint_cycle : checkpoint -> int

(** Two-valued gate-level simulator — the "conventional RTL simulator"
    stand-in for the paper's simulation-speed comparison.  Flip-flops
    power up at 0.

    The default {!Event_driven} mode is activity-based: cells are
    levelized at creation, each net knows its combinational readers, and
    a settle re-evaluates only cells whose inputs toggled (one ascending
    sweep over the dirty levels).  {!Full_eval} retains the original
    evaluate-everything behaviour as a bit-identical reference — both
    modes produce the same output values and report the same net
    changes to {!observe} subscribers, cycle for cycle. *)

type t

type mode =
  | Event_driven  (** dirty-set propagation (default) *)
  | Full_eval  (** every combinational cell, every settle (reference) *)

exception Combinational_loop of { module_name : string; net : int }
(** A combinational cycle through [net] in the named design — the
    gate-level counterpart of {!Rtl_sim.Combinational_loop}. *)

val create : ?mode:mode -> Netlist.t -> t
(** Checks the netlist and levelizes it; raises {!Combinational_loop}
    naming the offending net on a combinational cycle. *)

val topo_order : Netlist.t -> Netlist.cell array
(** Combinational cells in topological (inputs-before-readers) order;
    raises {!Combinational_loop} on a cycle. *)

(** The static scheduling structure behind both gate-level simulators
    (this one and the word-parallel {!Nl_wsim}): topological order,
    levels, per-net combinational fanout and the port-name tables.
    Building it checks the netlist and raises {!Combinational_loop} on
    a combinational cycle. *)
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

val set_input : t -> string -> Bitvec.t -> unit
val set_input_int : t -> string -> int -> unit
val get_output : t -> string -> Bitvec.t
val get_output_int : t -> string -> int

(** {1 Prebound input ports}

    {!set_input} pays a hash lookup per call; stimulus loops driving the
    same port every cycle bind it once and drive through the handle.
    Handles carry only netlist structure, so one is valid for any
    simulator instance over the same netlist. *)

type port

val in_port : t -> string -> port
(** Raises [Not_found] for an unknown input port. *)

val drive_port : t -> port -> Bitvec.t -> unit
(** Like {!set_input} but without the name lookup; bits of vectors up
    to 62 wide are extracted word-at-once rather than per-bit. *)

val drive_port_int : t -> port -> int -> unit
(** Drive the low bits of a two's-complement int (no [Bitvec]
    allocation at all). *)

val settle : t -> unit
(** Propagate combinational logic only. *)

val step : t -> unit
(** One clock cycle: settle, commit flip-flops, settle. *)

val run : t -> int -> unit

val cycles : t -> int
val gate_evals : t -> int
(** Total gate evaluations so far (simulation-cost metric). *)

val cells_skipped : t -> int
(** Combinational evaluations avoided relative to a full settle
    (always 0 in {!Full_eval} mode). *)

val comb_cells : t -> int
(** Number of combinational cells in the design. *)

val dff_cells : t -> int
(** Number of flip-flops in the design. *)

val net_value : t -> Netlist.net -> bool
(** Current value of one net (read-only observation point). *)

val probes : t -> (string * Netlist.net) list
(** Hinted internal nets as hierarchical observation points, sorted by
    name ({!Netlist.describe_net}, e.g. ["u_hist.count[3]"]).  Port
    nets are excluded — they are observable under their port names. *)

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

(** {1 Observation tap} *)

val observe : t -> (string array -> Cover.Tap.t) -> unit
(** Subscribe to the per-cycle net changes: the factory receives the
    per-net labels ({!Sched.net_labels}; slot [n] is net [n]) and its
    tap is then told, at the end of every {!step}, each net whose
    value differs from the one before the clock edge, followed by one
    [cycle_end].  Both modes report identical streams.  With no
    subscriber a step does no change bookkeeping at all.  Subscribers
    are never removed. *)

val enable_toggle_cover : t -> unit
(** Subscribe one {!Cover.Toggle} collector over all nets (directional
    0->1 / 1->0 edges).  Idempotent. *)

val toggle_cover : t -> Cover.Toggle.t option
(** The collector {!enable_toggle_cover} subscribed. *)

(** {1 Causal events and checkpointing} *)

val enable_events : t -> unit
(** Start emitting causal events into the global [Obs.Event] log
    (enabling it if needed): input edges as [Stimulus], net changes as
    [Net_change] caused by the latest change among the evaluated
    cell's input nets (fanout propagation made explicit), flip-flop
    commits caused by the change that last moved the D input.  Net
    subjects are the hierarchical {!net_labels}.  Fully supported in
    [Event_driven] mode; [Full_eval] re-evaluates everything per settle
    and records no change causality.  Costs one branch per changed net
    while off. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep copy of net values, scheduler state and cycle count.
    Subscribers and profiles are not captured. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint taken on the same simulator; re-running the
    original stimulus afterwards is bit-identical to the original
    window. *)

val checkpoint_cycle : checkpoint -> int

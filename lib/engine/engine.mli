(** First-class simulation engines.

    Every simulator in the flow — the behavioural kernel level, the RTL
    interpreter and the gate-level netlist simulator — is wrapped into
    one interface: named, sized ports driven with {!set_input} and read
    with {!get}, a {!settle}/{!step}/{!run} execution model with one
    [step] per clock cycle, activity counters ({!stats}) and one
    observation tap ({!S.observe}).  The
    N-way lockstep differential harness ([Backend.Equiv]), the traces
    and the benchmarks all consume this interface, so a new simulation
    backend only has to provide an {!S} implementation to plug into
    equivalence checking, waveforms and the performance reports.

    {b Thread affinity.}  Engines are {e not} domain-safe: every
    backend keeps plain mutable simulation state (net values, pending
    queues, schedulers) with no internal locking.  The contract for
    parallel campaigns (the [Par] domain pool) is {e one engine per
    domain, never shared}: create an engine {e inside} the shard that
    steps it — the engine factories of [Backend.Equiv] exist exactly
    for this — and let it die with the shard.  Read-only inputs
    ([Netlist.t], [Ir.module_def]) may be shared across shards; live
    engines, checkpoints and the collectors subscribed through
    {!S.observe} must stay on the domain that created them.  The
    process-global observability substrate ([Perf], [Obs.Span],
    [Obs.Hist], [Obs.Log]) is domain-safe, but the causal event ring
    ([Obs.Event]) is a single per-process buffer — engines with
    {!S.enable_events} on must not step concurrently, and engines
    without it never write into the ring. *)

module type S = sig
  type t

  val kind : string
  (** Static backend name, e.g. ["rtl-interp"] or ["netlist-event"]. *)

  val inputs : t -> (string * int) list
  (** Input ports with widths, in declaration order. *)

  val outputs : t -> (string * int) list

  val set_input : t -> string -> Bitvec.t -> unit
  val get : t -> string -> Bitvec.t
  (** Current value of any port (inputs echo their last driven value). *)

  val settle : t -> unit
  (** Propagate combinational activity without a clock edge. *)

  val step : t -> unit
  (** One full clock cycle. *)

  val cycles : t -> int

  val lanes : t -> int
  (** Independent stimulus lanes the backend advances per step: 1 for
      the scalar backends, the lane count of a word-parallel netlist
      engine.  All lanes share the clock — {!step} advances every
      lane. *)

  val stats : t -> (string * int) list
  (** Engine-specific activity counters (same figures the global
      [Perf] registry accumulates), e.g. gate evaluations. *)

  val probes : t -> (string * int) list
  (** Named internal observation points with widths — hierarchical,
      dot-separated names ("u_hist.count[3]") when the backend carries
      hierarchy information; [[]] for backends without internal
      visibility. *)

  val probe : t -> string -> Bitvec.t
  (** Current value of one {!probes} entry; raises [Not_found] for an
      unknown probe name. *)

  val observe : t -> (string array -> Cover.Tap.t) -> unit
  (** Subscribe to the backend's per-cycle change stream: the factory
      receives the slot names (net labels at gate level, one slot per
      bit of every scalar variable at RTL, lane 0 on a word-parallel
      backend) and its tap is told each slot that moved over a
      {!step}, then the cycle end.  Feed a [Cover.Toggle.tap] for
      toggle coverage, a [Cover.Activity.tap] for [Synth.Power_dyn].
      The behavioural kernel backend has no slots and never calls the
      factory. *)

  val enable_events : t -> unit
  (** Start emitting this engine's causal events into the global
      [Obs.Event] log (enabling the log if needed); read them back with
      [Obs.Event.events]. *)

  val checkpoint : t -> (unit -> unit) option
  (** Capture the simulation state now and return the closure that
      rewinds to it; [None] for backends without checkpoint support. *)
end

type t = Pack : (module S with type t = 'a) * 'a * string -> t
(** An engine instance packed with its implementation and an instance
    label (used in mismatch reports and trace scopes). *)

val pack : ?label:string -> (module S with type t = 'a) -> 'a -> t
(** [label] defaults to the implementation's [kind]. *)

(** {1 Generic operations over packed engines} *)

val label : t -> string
val kind : t -> string
val inputs : t -> (string * int) list
val outputs : t -> (string * int) list
val set_input : t -> string -> Bitvec.t -> unit
val set_input_int : t -> string -> int -> unit
val get : t -> string -> Bitvec.t
val get_int : t -> string -> int
val settle : t -> unit
val step : t -> unit
val run : t -> int -> unit
val cycles : t -> int
val lanes : t -> int
val stats : t -> (string * int) list
val probes : t -> (string * int) list
val probe : t -> string -> Bitvec.t
val observe : t -> (string array -> Cover.Tap.t) -> unit
val enable_events : t -> unit

(** {1 Checkpoint / replay}

    Record cheap, replay rich: take checkpoints during a fast
    uninstrumented run, then {!restore} the one before a failure and
    re-run the window with the event log (and any other observability)
    switched on. *)

type checkpoint = {
  ck_cycle : int;  (** cycle count when the checkpoint was taken *)
  ck_label : string;  (** engine instance label *)
  ck_restore : unit -> unit;
}

val checkpoint : t -> checkpoint option
(** Capture the engine's simulation state; [None] for backends without
    checkpoint support (the behavioural kernel backend).  Restoring is
    only meaningful on the engine the checkpoint was taken from. *)

val restore : checkpoint -> unit
val checkpoint_cycle : checkpoint -> int

val inject_fault : ?from_cycle:int -> port:string -> t -> t
(** A wrapper engine that behaves exactly like the inner one except
    that {!get} of output [port] comes back with the least significant
    bit flipped once the engine has stepped at least [from_cycle]
    (default [0]) cycles.  Used to validate that the differential
    harness detects, localizes and shrinks a divergence.  Once
    {!enable_events} was called on the wrapper, the first corrupted
    read of each armed cycle also records a [Fault] event on the port
    (caused by whatever last moved it), so causality queries over the
    corrupted value reach the injection.  Raises [Invalid_argument]
    for an unknown port. *)

(** {1 Consolidated tracing}

    One VCD document for any set of engines: every port of every engine
    is declared (scoped per engine label) and sampled against the
    engines' common cycle count.  Engines exposing {!probes} also get
    their internal observation points declared, nested into VCD scopes
    following the probes' dot-separated hierarchical paths (e.g. net
    ["u_hist.count[3]"] of engine [nl] appears as signal [count[3]] in
    scope [u_hist] inside scope [nl]). *)

module Trace : sig
  type tracer

  val create : ?top:string -> t list -> tracer
  val sample : tracer -> unit
  (** Record the current port values at the (maximum) engine cycle
      count; only changed values are written. *)

  val signal_count : tracer -> int
  val contents : tracer -> string
  val save : tracer -> string -> unit
end

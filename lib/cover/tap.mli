(** One observation tap for every simulator.

    A subscriber to a simulator's per-cycle change stream.  Each
    simulator compares every committed slot (a net, or one bit of an
    RTL variable) with its value before the clock edge anyway; with
    subscribers attached it calls {!field:change} once per slot that
    moved over the cycle, then {!field:cycle_end} once.  Glitches inside
    a cycle that end where they started are not reported.  With no
    subscriber the simulators skip this bookkeeping entirely.

    Collectors build their tap with {!Toggle.tap} and {!Activity.tap};
    simulators hand the subscriber factory their slot names first
    ([observe : t -> (string array -> Tap.t) -> unit]). *)

type t = {
  change : int -> rising:bool -> unit;
      (** slot index; [rising] for a 0->1 edge *)
  cycle_end : unit -> unit;  (** once per clock cycle, after the changes *)
}

val change_all : t list -> int -> rising:bool -> unit
(** Tell every subscriber, in order, of one change (allocates
    nothing: simulators call it per changed slot). *)

val cycle_end_all : t list -> unit
(** Close the cycle for every subscriber, in order. *)

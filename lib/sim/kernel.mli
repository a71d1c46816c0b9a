(** Discrete-event simulation kernel with delta cycles.

    This is the SystemC simulation-kernel equivalent.  A kernel owns a
    current simulation time (in picoseconds), a queue of runnable
    processes, a set of pending signal updates, and a timed event queue.

    One simulation step is the classic two-phase loop:
    + {e evaluation}: run every runnable process; processes read signal
      current values and write signal next values;
    + {e update}: commit written signals; each value change notifies its
      event, which makes subscribed processes runnable in the next delta.

    Time only advances when no delta work remains. *)

type time = int
(** Picoseconds since simulation start. *)

type t
(** A simulation context. *)

type event
(** A notification channel processes can subscribe to. *)

exception Deadlock of string
(** Raised by {!run_until} when asked to advance but no timed activity
    remains and processes are still waiting. *)

val create : unit -> t

val now : t -> time
val delta_count : t -> int
(** Total number of delta cycles executed so far (a simulation-cost
    metric used by the benchmarks). *)

val process_runs : t -> int
(** Total number of process activations executed so far. *)

val record_wake : t -> string -> unit
(** Tally one wakeup against a named process (called by [Process] on
    every activation; exposed for other front ends that schedule named
    work on the kernel). *)

val wake_counts : t -> (string * int) list
(** Per-process wake counts, sorted by name — the kernel-level activity
    profile. *)

val enable_events : t -> unit
(** Start emitting this kernel's delta and process events into the
    global [Obs.Event] log (enabling it if needed). *)

(** {1 Events} *)

val make_event : t -> string -> event

val subscribe_static : event -> (unit -> unit) -> unit
(** Persistent subscription (static sensitivity): the callback is made
    runnable at every notification. *)

val subscribe_once : event -> (unit -> unit) -> unit
(** One-shot subscription (dynamic sensitivity). *)

val notify : event -> unit
(** Delta notification: subscribers run in the next delta cycle. *)

val notify_after : event -> time -> unit
(** Timed notification [delay] picoseconds from now. *)

(** {1 Processes and scheduling} *)

val schedule_update : t -> (unit -> unit) -> unit
(** Register a commit action for the coming update phase (used by
    signals; not for user code). *)

val schedule_at : t -> time -> (unit -> unit) -> unit
(** Run a thunk when simulation time reaches [now + delay]. *)

val add_startup : t -> (unit -> unit) -> unit
(** Run a thunk in the very first evaluation phase. *)

(** {1 Running} *)

val run_until : t -> time -> unit
(** Execute until simulation time would exceed the bound (inclusive) or
    until {!stop} is called, whichever comes first.  Runs pending deltas
    at the final time point. *)

val run_for : t -> time -> unit
(** [run_for k d] = [run_until k (now k + d)]. *)

val stop : t -> unit
(** Request the current [run_until] to return after the current delta. *)

val stopped : t -> bool

(** Global, process-wide performance counters.

    The simulators (RTL interpreter, gate-level netlist simulator) bump
    these counters on their hot paths so that scheduling improvements —
    activity-based process skipping, dirty-set gate evaluation — are
    observable from tests and benchmarks without threading a context
    through every call site.  Counters are registered by name on first
    use; looking the same name up twice returns the same counter.

    Counters are {b domain-safe}: counts are atomics and the registry
    is mutex-protected, so parallel campaign shards (the [Par] domain
    pool) increment shared counters without loss.  [incr] from many
    domains sums exactly; [snapshot]/[diff] taken while shards run see
    some consistent intermediate value per counter. *)

type t

val counter : string -> t
(** [counter name] returns the counter registered under [name], creating
    it (at zero) on first use. *)

val incr : ?by:int -> t -> unit

val add : t -> int -> unit
(** [add c n] is [incr ~by:n c] without the optional-argument
    allocation, for per-cycle hot paths. *)

val value : t -> int

val name : t -> string

val reset : t -> unit

val reset_all : unit -> unit
(** Zeroes every registered counter (they stay registered). *)

val all : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

(** {1 Scoped observation}

    Counters are process-global; phases that run concurrently with
    other instrumented work (the search/shrink/replay phases of
    [Backend.Equiv], a pass inside a longer flow) must not reset them
    mid-run.  Instead, snapshot before and diff after. *)

type snapshot

val snapshot : unit -> snapshot
(** Capture every registered counter's current value. *)

val diff : before:snapshot -> after:snapshot -> (string * int) list
(** Per-counter delta between two snapshots, sorted by name; zero
    deltas are dropped.  Counters registered after [before] count from
    zero. *)

val since : snapshot -> (string * int) list
(** [diff ~before ~after:(snapshot ())]. *)

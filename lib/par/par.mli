(** Multicore campaign runtime: one [map] that runs shards on OCaml 5
    domains with deterministic shard→result ordering.

    The simulation campaigns this repo runs — stuck-at fault campaigns,
    multi-seed coverage closure, N-way differential sweeps — are
    embarrassingly parallel: a campaign splits into independent
    {e shards} (a slice of the fault list, one stimulus seed), each
    shard builds its own engines and the results merge by shard index.
    This module supplies the runtime underneath them:

    {ul
    {- {b Determinism.}  [map f n] always returns
       [[| f 0; …; f (n-1) |]]: every shard writes its result into its
       own slot, so the output order never depends on execution order,
       and [jobs = 1] runs the shards inline on the calling domain
       without spawning anything — bit-identical to a serial loop.}
    {- {b Dynamic balance.}  Every participant, the caller included,
       claims the next unstarted shard off one shared atomic counter,
       so an uneven shard (one fault that shrinks expensively) does not
       serialize the batch.}
    {- {b Failure propagation.}  The first shard to raise wins: its
       exception is captured with shard provenance, every not-yet-begun
       shard is skipped, the spawned domains are joined and the caller
       receives {!Shard_failure}.}}

    {b Thread affinity}: the shard function runs on an arbitrary
    domain.  Everything it touches must be domain-safe or domain-local
    — in particular, simulation engines must be created {e inside} the
    shard and never shared across shards (see the contract note in
    [Engine]).  The observability substrate ([Perf], [Obs.Log],
    [Obs.Span], [Obs.Hist]) is domain-safe and may be used freely from
    shards. *)

exception
  Shard_failure of {
    shard : int;  (** index of the raising shard *)
    label : string;  (** human label of the raising shard *)
    exn : exn;  (** the original exception *)
    backtrace : string;  (** backtrace captured on the shard's domain *)
  }
(** Raised by {!map} when a shard raises: the batch is aborted —
    shards not yet started are skipped — and the original exception
    re-raised with shard provenance. *)

val default_jobs : unit -> int
(** The process-wide default worker count used when [?jobs] is omitted.
    Initialized from the [OSSS_JOBS] environment variable when set,
    otherwise [Domain.recommended_domain_count ()]; override with
    {!set_default_jobs} (the [--jobs N] CLI flag does). *)

val set_default_jobs : int -> unit
(** Clamped to at least 1. *)

val chunks : shards:int -> 'a list -> 'a list array
(** [chunks ~shards xs] splits [xs] into at most [shards] contiguous,
    order-preserving chunks whose lengths differ by at most one
    (concatenating the chunks yields [xs]).  Always returns at least
    one chunk; never returns more chunks than [xs] has elements —
    except for the empty list, which yields one empty chunk. *)

val map : ?jobs:int -> ?label:(int -> string) -> (int -> 'a) -> int -> 'a array
(** [map ~jobs f n] evaluates [f i] for [i] in [0 .. n-1] on
    [min jobs n] participants — the caller and [min jobs n - 1] domains
    spawned for this call and joined before it returns — and returns
    the results indexed by [i], regardless of execution interleaving.
    [jobs] defaults to {!default_jobs}[ ()] and is clamped to at least
    1.  [label] names shards for failure provenance.  With histograms
    enabled, each shard's wall-clock lands in ["par.shard_ms"]; the
    ["par.batches"] and ["par.shards"] counters count non-empty calls
    and shards run.

    [jobs = 1], [n <= 1], and a map issued from inside a running shard
    (nested parallelism) run inline on the calling domain, in index
    order, stopping at the first failure.  Raises {!Shard_failure} if
    any shard raises. *)

val map_list : ?jobs:int -> ?label:(int -> string) -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f xs]: {!map} over a list, preserving order. *)

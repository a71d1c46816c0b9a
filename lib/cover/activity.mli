(** Windowed switching-activity sampling.

    An [Activity.t] accumulates toggle counts for a fixed set of slots
    (typically one per net) over consecutive windows of a configurable
    number of cycles.  Completed windows are snapshotted as sparse
    (slot, count) lists — the raw material for SAIF-style dynamic power
    estimation, where per-window activity becomes per-window power.

    The collector is passive, like {!Toggle}: subscribed with {!tap}, a
    simulator calls {!record} once per toggled slot, then {!end_cycle}
    once per clock cycle. *)

type window = {
  w_index : int;  (** 0-based completed-window index *)
  w_start : int;  (** first cycle covered by the window *)
  w_cycles : int;  (** cycles in the window (< window size only when flushed) *)
  w_counts : (int * int) list;
      (** (slot, toggle count) for slots that toggled, ascending slot *)
}

type t

(** [create ?window ~slots ()] allocates a sampler with [slots] slots
    and [window] cycles per window (default 64).

    @raise Invalid_argument if [window <= 0] or [slots < 0]. *)
val create : ?window:int -> slots:int -> unit -> t

(** Count one toggle on [slot] in the current window. *)
val record : t -> int -> unit

(** Advance the window clock by one cycle, closing the current window
    when it reaches the configured size. *)
val end_cycle : t -> unit

(** The sampler as a simulator subscriber ({!Tap}): changes are
    {!record}ed regardless of direction, each cycle end is an
    {!end_cycle}. *)
val tap : t -> Tap.t

(** Close a partial trailing window so its activity becomes visible in
    {!windows}.  No-op when no cycles are pending; idempotent. *)
val flush : t -> unit

(** Completed windows, oldest first. *)
val windows : t -> window list

val window_count : t -> int
val window_size : t -> int
val slots : t -> int

(** Total toggles recorded, including any not-yet-closed window. *)
val total_toggles : t -> int

(** Cycles seen, including any not-yet-closed window. *)
val cycles : t -> int

(** Total toggles inside one completed window. *)
val window_toggles : window -> int

(** The completed window with the most toggles (earliest wins ties). *)
val peak : t -> window option

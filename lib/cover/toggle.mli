(** Per-bit toggle coverage.

    A [Toggle.t] tracks, for a fixed set of named single-bit slots, how
    many 0->1 (rise) and 1->0 (fall) transitions each slot has seen.  A
    bit counts as *covered* once it has seen at least one transition in
    each direction — the classic structural-coverage question "did the
    stimulus ever move this wire both ways?".

    The collector itself is passive: subscribe it to a simulator with
    {!tap}, and the simulator's change detection calls {!record} for
    the bits that moved over each cycle. *)

type t

(** [create ~names] allocates a collector with one slot per entry of
    [names].  Slot [i] is named [names.(i)]; multi-bit signals are
    expected to be expanded by the caller ([sig[3]], [sig[2]], ...). *)
val create : names:string array -> t

(** [record t i ~rising] counts one transition on slot [i]:
    a 0->1 edge when [rising], a 1->0 edge otherwise. *)
val record : t -> int -> rising:bool -> unit

(** The collector as a simulator subscriber ({!Tap}): every reported
    change is {!record}ed. *)
val tap : t -> Tap.t

val bits : t -> int
val name : t -> int -> string
val rises : t -> int -> int
val falls : t -> int -> int

(** Number of bits that toggled in both directions. *)
val covered : t -> int

(** Number of bits that toggled in at least one direction. *)
val touched : t -> int

(** [covered / bits]; 1.0 for an empty collector. *)
val coverage : t -> float

(** [(name, rises + falls)] of every slot that moved, in slot order —
    the raw list [Obs.Profile.top] ranks into a "hot nets" table. *)
val activity : t -> (string * int) list

(** Names of up to [k] (default 10) not-yet-covered bits, in slot order. *)
val uncovered : ?k:int -> t -> string list

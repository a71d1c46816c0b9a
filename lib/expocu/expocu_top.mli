(** The complete Exposure Control Unit (Figure 1).

    Per-frame control loop: acquire a pixel histogram while the frame
    streams in, scan it for the median brightness band at frame end,
    update the exposure gain, and write the new setting to the imager
    over I²C — exactly the module inventory of §2 (camera data
    synchronization, histogram acquisition, threshold calculation,
    parameter calculation, I²C bus control, reset control).

    Interface:
    in  [ext_reset](1), [pixel](8), [line_valid](1), [frame_sync](1)
        (high during a frame), [sda_in](1), [target_bin](8);
    out [scl](1), [sda_out](1), [sda_oe](1), [exposure](16),
        [frame_done](1), [ack_error](1), [median_bin](8).

    [osss_top] assembles the OSSS-style component implementations,
    [rtl_top] the conventional VHDL-style ones; the two are
    cycle-equivalent by construction, which experiment E8 checks. *)

type config = { bins : int; count_w : int; divider : int }

val default_config : config
(** 16 bins, 16-bit counters, I²C divider 4. *)

val osss_top : ?config:config -> unit -> Ir.module_def
val rtl_top : ?config:config -> unit -> Ir.module_def

val i2c_dev_addr : int
val i2c_reg_addr : int

(** {1 Sequencer state encoding}

    Values of the 4-bit [top_state] register, exposed for coverage
    registration (see [Coverpoints]). *)

val st_acquire : int
val st_scan_settle : int
val st_scan : int
val st_update : int
val st_param_settle : int
val st_wait_param : int
val st_send : int
val st_i2c_settle : int
val st_wait_i2c : int

(** {1 Driving a frame}

    The camera-port protocol of the paper's application, written once
    against callbacks so that every simulator drives the same sequence:
    [set] drives an input port, [step] advances one clock cycle (the
    place to sample a tracer or a shadow simulator), [read] reads an
    output port. *)

val power_on :
  ?target:int ->
  set:(string -> int -> unit) ->
  step:(unit -> unit) ->
  unit ->
  unit
(** Drive every input to its idle value ([target_bin] to [target],
    default 7) and step through the 15-cycle power-on reset. *)

val drive_frame :
  ?reset:bool ->
  set:(string -> int -> unit) ->
  step:(unit -> unit) ->
  read:(string -> int) ->
  pixels:int ->
  pixel:(int -> unit) ->
  unit ->
  bool
(** One frame: {!power_on} (target bin 7) first unless [reset] is
    [false]; then raise [frame_sync] and step 4 cycles, raise
    [line_valid] and, for [i] from 0 to [pixels - 1], call [pixel i]
    (which drives the [pixel] port) and step; drop both strobes and
    step until [frame_done] reads non-zero, at most 4,000 cycles.
    Returns whether [frame_done] arrived within that guard. *)

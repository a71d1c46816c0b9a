(* Tests for the ExpoCU case study: every component in both styles,
   pairwise cycle equivalence, netlist equivalence, protocol-level I2C
   checks, and a full closed-loop frame through the top level. *)

open Hdl

(* ------------------------- sync ------------------------- *)

let test_sync_behaviour () =
  let sim = Rtl_sim.create (Expocu.Sync.osss_module ()) in
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  Rtl_sim.set_input_int sim "data" 1;
  Rtl_sim.step sim;
  (* first 1 shifted in: rising edge at index 0 *)
  Alcotest.(check int) "rising strobe" 1 (Rtl_sim.get_int sim "rising");
  Alcotest.(check int) "value 0001" 1 (Rtl_sim.get_int sim "value");
  Rtl_sim.step sim;
  Alcotest.(check int) "strobe clears" 0 (Rtl_sim.get_int sim "rising");
  Rtl_sim.run sim 2;
  Alcotest.(check int) "all ones" 15 (Rtl_sim.get_int sim "value");
  Alcotest.(check int) "stable now" 1 (Rtl_sim.get_int sim "stable");
  Rtl_sim.set_input_int sim "data" 0;
  Rtl_sim.step sim;
  Alcotest.(check int) "falling strobe" 1 (Rtl_sim.get_int sim "falling")

let test_sync_styles_equivalent () =
  match
    Backend.Equiv.ir_vs_ir ~cycles:1000
      (Expocu.Sync.osss_module ())
      (Expocu.Sync.rtl_module ())
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_sync_netlist_equivalent () =
  let design = Expocu.Sync.osss_module () in
  match
    Backend.Equiv.ir_vs_netlist ~cycles:500 design
      (Backend.Lower.lower design)
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_sync_zero_overhead () =
  (* §8: resolving classes/templates adds no logic.  The OSSS module
     must synthesize to exactly the same optimized cell count as the
     hand-written RTL one. *)
  let gates m =
    Backend.Netlist.cell_count (Backend.Opt.optimize (Backend.Lower.lower m))
  in
  let osss = gates (Expocu.Sync.osss_module ()) in
  let rtl = gates (Expocu.Sync.rtl_module ()) in
  Alcotest.(check int) "identical gate count" rtl osss

(* ------------------------- histogram ------------------------- *)

let feed_pixels sim pixels =
  Rtl_sim.set_input_int sim "pixel_valid" 1;
  Array.iter
    (fun px ->
      Rtl_sim.set_input_int sim "pixel" px;
      Rtl_sim.step sim)
    pixels;
  Rtl_sim.set_input_int sim "pixel_valid" 0

let read_bins sim bins =
  Array.init bins (fun i ->
      Rtl_sim.set_input_int sim "rd_idx" i;
      Rtl_sim.settle sim;
      Rtl_sim.get_int sim "rd_count")

let test_histogram_counts () =
  List.iter
    (fun make ->
      let sim = Rtl_sim.create (make ()) in
      Rtl_sim.set_input_int sim "reset" 1;
      Rtl_sim.step sim;
      Rtl_sim.set_input_int sim "reset" 0;
      Rtl_sim.set_input_int sim "clear" 0;
      let pixels = Array.init 200 (fun i -> i * 37 mod 256) in
      feed_pixels sim pixels;
      let expected = Expocu.Exposure_algo.histogram ~bins:16 pixels in
      let got = read_bins sim 16 in
      Alcotest.(check (array int)) "bins match reference" expected got;
      Alcotest.(check int) "total" 200 (Rtl_sim.get_int sim "total");
      (* clear wipes *)
      Rtl_sim.set_input_int sim "clear" 1;
      Rtl_sim.step sim;
      Rtl_sim.set_input_int sim "clear" 0;
      Alcotest.(check (array int)) "cleared" (Array.make 16 0) (read_bins sim 16))
    [
      (fun () -> Expocu.Histogram.osss_module ());
      (fun () -> Expocu.Histogram.rtl_module ());
    ]

let test_histogram_styles_equivalent () =
  match
    Backend.Equiv.ir_vs_ir ~cycles:800
      (Expocu.Histogram.osss_module ())
      (Expocu.Histogram.rtl_module ())
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_histogram_netlist_equivalent () =
  let design = Expocu.Histogram.osss_module ~bins:8 ~count_w:8 () in
  match
    Backend.Equiv.ir_vs_netlist ~cycles:300 design
      (Backend.Lower.lower design)
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

(* ------------------------- threshold ------------------------- *)

(* Run a threshold scan against a given histogram content. *)
let run_threshold make_module (h : int array) =
  let bins = Array.length h in
  let total = Array.fold_left ( + ) 0 h in
  let sim = Rtl_sim.create (make_module ()) in
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  Rtl_sim.set_input_int sim "total" total;
  Rtl_sim.set_input_int sim "start" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "start" 0;
  let guard = ref 0 in
  while Rtl_sim.get_int sim "done" = 0 && !guard < 1000 do
    (* serve the histogram read port like the real wiring does *)
    let idx = Rtl_sim.get_int sim "rd_idx" in
    Rtl_sim.set_input_int sim "rd_count" (if idx < bins then h.(idx) else 0);
    Rtl_sim.step sim;
    incr guard
  done;
  Alcotest.(check bool) "finished" true (!guard < 1000);
  ( Rtl_sim.get_int sim "median_bin",
    Rtl_sim.get_int sim "underexposed",
    Rtl_sim.get_int sim "overexposed" )

let test_threshold_median () =
  let cases =
    [
      (* dark image: everything in bin 1 *)
      (Array.init 16 (fun i -> if i = 1 then 100 else 0), 1, 1, 0);
      (* bright image: everything in bin 14 *)
      (Array.init 16 (fun i -> if i = 14 then 50 else 0), 14, 0, 1);
      (* uniform: median in the middle *)
      (Array.make 16 10, 7, 0, 0);
    ]
  in
  List.iter
    (fun make ->
      List.iter
        (fun (h, want_median, want_under, want_over) ->
          let median, under, over = run_threshold make h in
          Alcotest.(check int) "median" want_median median;
          Alcotest.(check int) "under" want_under under;
          Alcotest.(check int) "over" want_over over;
          Alcotest.(check int) "reference agrees" want_median
            (Expocu.Exposure_algo.median_bin h))
        cases)
    [
      (fun () -> Expocu.Threshold.osss_module ());
      (fun () -> Expocu.Threshold.rtl_module ());
    ]

let test_threshold_styles_equivalent () =
  match
    Backend.Equiv.ir_vs_ir ~cycles:1000
      (Expocu.Threshold.osss_module ())
      (Expocu.Threshold.rtl_module ())
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

(* ------------------------- param calc ------------------------- *)

let run_param make_module updates =
  let sim = Rtl_sim.create (make_module ()) in
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  List.map
    (fun (median, target) ->
      Rtl_sim.set_input_int sim "median_bin" median;
      Rtl_sim.set_input_int sim "target_bin" target;
      Rtl_sim.set_input_int sim "update" 1;
      Rtl_sim.step sim;
      Rtl_sim.set_input_int sim "update" 0;
      (* serial multiplication: wait for the result *)
      Rtl_sim.step sim;
      let guard = ref 0 in
      while Rtl_sim.get_int sim "ready" = 0 && !guard < 100 do
        Rtl_sim.step sim;
        incr guard
      done;
      Rtl_sim.get_int sim "exposure")
    updates

let test_param_latency () =
  (* ready drops during the serial multiply and returns after ~18 cycles *)
  let sim = Rtl_sim.create (Expocu.Param_calc.osss_module ()) in
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  Alcotest.(check int) "ready after reset" 1 (Rtl_sim.get_int sim "ready");
  Rtl_sim.set_input_int sim "median_bin" 3;
  Rtl_sim.set_input_int sim "target_bin" 7;
  Rtl_sim.set_input_int sim "update" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "update" 0;
  Alcotest.(check int) "computing" 0 (Rtl_sim.get_int sim "ready");
  Alcotest.(check int) "busy" 1 (Rtl_sim.get_int sim "busy");
  let cycles = ref 0 in
  while Rtl_sim.get_int sim "ready" = 0 && !cycles < 100 do
    Rtl_sim.step sim;
    incr cycles
  done;
  Alcotest.(check bool) "serial latency"
    true
    (!cycles >= Expocu.Param_calc.mult_cycles
    && !cycles <= Expocu.Param_calc.mult_cycles + 4)

let test_param_matches_golden () =
  let updates = [ (3, 7); (3, 7); (10, 7); (7, 7); (0, 15); (15, 0) ] in
  let golden =
    let e = ref Expocu.Param_calc.gain_unity in
    List.map
      (fun (median, target) ->
        e := Expocu.Param_calc.golden_update ~exposure:!e ~median ~target;
        !e)
      updates
  in
  List.iter
    (fun make ->
      Alcotest.(check (list int)) "sequence matches golden" golden
        (run_param make updates))
    [
      (fun () -> Expocu.Param_calc.osss_module ());
      (fun () -> Expocu.Param_calc.rtl_module ());
    ]

let test_param_styles_equivalent () =
  match
    Backend.Equiv.ir_vs_ir ~cycles:1000
      (Expocu.Param_calc.osss_module ())
      (Expocu.Param_calc.rtl_module ())
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_param_netlist_equivalent () =
  let design = Expocu.Param_calc.rtl_module () in
  match
    Backend.Equiv.ir_vs_netlist ~cycles:300 design
      (Backend.Lower.lower design)
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_param_clamps () =
  (* Hammer toward dark: exposure must stop at gain_max, not wrap. *)
  let updates = List.init 40 (fun _ -> (0, 15)) in
  List.iter
    (fun make ->
      let last = List.nth (run_param make updates) 39 in
      Alcotest.(check int) "clamped at max" Expocu.Param_calc.gain_max last)
    [
      (fun () -> Expocu.Param_calc.osss_module ());
      (fun () -> Expocu.Param_calc.rtl_module ());
    ];
  (* and toward bright: clamp at min *)
  let updates = List.init 60 (fun _ -> (15, 0)) in
  let last = List.nth (run_param (fun () -> Expocu.Param_calc.osss_module ()) updates) 59 in
  Alcotest.(check int) "clamped at min" Expocu.Param_calc.gain_min last

(* ------------------------- VHDL IP ------------------------- *)

let test_ip_mult_module () =
  let sim = Rtl_sim.create (Expocu.Vhdl_ip.mult16_module ()) in
  List.iter
    (fun (a, b) ->
      Rtl_sim.set_input_int sim "a" a;
      Rtl_sim.set_input_int sim "b" b;
      Rtl_sim.settle sim;
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b)
        (Rtl_sim.get_int sim "p"))
    [ (0, 0); (1, 1); (65535, 65535); (1234, 5678); (40000, 3) ]

let test_ip_netlist_injection () =
  (* Splice the IP into a netlist at gate level and simulate. *)
  let module N = Backend.Netlist in
  let nl = N.create ~name:"ip_host" () in
  let a = N.add_input nl "a" 16 in
  let b = N.add_input nl "b" 16 in
  let p = Expocu.Vhdl_ip.mult16_netlist nl ~a ~b in
  N.add_output nl "p" p;
  N.check nl;
  let sim = Backend.Nl_sim.create nl in
  List.iter
    (fun (x, y) ->
      Backend.Nl_sim.set_input_int sim "a" x;
      Backend.Nl_sim.set_input_int sim "b" y;
      Backend.Nl_sim.settle sim;
      Alcotest.(check int) (Printf.sprintf "%d*%d" x y) (x * y)
        (Backend.Nl_sim.get_output_int sim "p"))
    [ (3, 5); (65535, 2); (500, 500); (40000, 40000) ]

(* ------------------------- I2C ------------------------- *)

(* Protocol monitor: sample scl/sda cycle by cycle, decode start/stop
   and data bits, return the three bytes of the write transaction. *)
type i2c_decode = {
  bytes : int list;
  got_start : bool;
  got_stop : bool;
  acks_sampled : int;
}

let monitor_i2c sim ~max_cycles =
  let prev_scl = ref 1 and prev_sda = ref 1 in
  let bits = ref [] and bytes = ref [] in
  let got_start = ref false and got_stop = ref false in
  let acks = ref 0 in
  let cycle = ref 0 in
  let bus_sda () =
    (* pull-up: released bus reads 1 *)
    if Rtl_sim.get_int sim "sda_oe" = 1 then Rtl_sim.get_int sim "sda_out"
    else 1
  in
  while (not !got_stop) && !cycle < max_cycles do
    Rtl_sim.settle sim;
    let scl = Rtl_sim.get_int sim "scl" in
    let sda = bus_sda () in
    if scl = 1 && !prev_scl = 1 && !prev_sda = 1 && sda = 0 then begin
      got_start := true;
      bits := []
    end
    else if scl = 1 && !prev_scl = 1 && !prev_sda = 0 && sda = 1 then
      got_stop := true
    else if scl = 1 && !prev_scl = 0 then begin
      (* rising SCL: data bit or ack slot *)
      if Rtl_sim.get_int sim "sda_oe" = 0 then begin
        incr acks;
        (* byte boundary: collect the 8 bits gathered since last ack *)
        let byte =
          List.fold_left (fun acc b -> (acc * 2) + b) 0 (List.rev !bits)
        in
        bytes := byte :: !bytes;
        bits := []
      end
      else bits := sda :: !bits
    end;
    prev_scl := scl;
    prev_sda := sda;
    Rtl_sim.step sim;
    incr cycle
  done;
  {
    bytes = List.rev !bytes;
    got_start = !got_start;
    got_stop = !got_stop;
    acks_sampled = !acks;
  }

let start_i2c sim ~dev ~reg ~data =
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  Rtl_sim.set_input_int sim "sda_in" 0;
  (* slave always acks *)
  Rtl_sim.set_input_int sim "dev_addr" dev;
  Rtl_sim.set_input_int sim "reg_addr" reg;
  Rtl_sim.set_input_int sim "data" data;
  Rtl_sim.set_input_int sim "go" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "go" 0

let test_i2c_transaction () =
  List.iter
    (fun make ->
      let sim = Rtl_sim.create (make ()) in
      start_i2c sim ~dev:0x48 ~reg:0x10 ~data:0xA5;
      let d = monitor_i2c sim ~max_cycles:1000 in
      Alcotest.(check bool) "start seen" true d.got_start;
      Alcotest.(check bool) "stop seen" true d.got_stop;
      Alcotest.(check (list int)) "three bytes on the bus"
        [ 0x48 * 2; 0x10; 0xA5 ] d.bytes;
      Alcotest.(check int) "three ack slots" 3 d.acks_sampled;
      Alcotest.(check int) "no ack error" 0 (Rtl_sim.get_int sim "ack_error");
      (* the STOP condition appears mid-slot; run out the remaining
         quarter phases before the done flag is due *)
      Rtl_sim.run sim 20;
      Alcotest.(check int) "done" 1 (Rtl_sim.get_int sim "done"))
    [
      (fun () -> Expocu.I2c.osss_module ());
      (fun () -> Expocu.I2c.systemc_module ());
      (fun () -> Expocu.I2c.vhdl_module ());
    ]

(* Read transaction: a little slave model drives sda_in bit by bit
   after the third ack position (start of the data-in byte). *)
let run_i2c_read make ~slave_byte =
  let sim = Rtl_sim.create (make ()) in
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  Rtl_sim.set_input_int sim "sda_in" 0;
  (* acks *)
  Rtl_sim.set_input_int sim "rw" 1;
  Rtl_sim.set_input_int sim "dev_addr" 0x48;
  Rtl_sim.set_input_int sim "reg_addr" 0x10;
  Rtl_sim.set_input_int sim "data" 0;
  Rtl_sim.set_input_int sim "go" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "go" 0;
  (* track scl falling edges while released to serve the data byte *)
  let prev_scl = ref 1 in
  let prev_sda = ref 1 in
  let releases = ref 0 in
  let bits_served = ref 0 in
  let bytes = ref [] and bits = ref [] in
  let guard = ref 0 in
  while Rtl_sim.get_int sim "done" = 0 && !guard < 4000 do
    Rtl_sim.step sim;
    let scl = Rtl_sim.get_int sim "scl" in
    let oe = Rtl_sim.get_int sim "sda_oe" in
    let sda_bus = if oe = 1 then Rtl_sim.get_int sim "sda_out" else 1 in
    (* START / repeated START: SDA falls while SCL high — restart the
       byte accumulator, as any bus monitor does *)
    if scl = 1 && !prev_scl = 1 && !prev_sda = 1 && sda_bus = 0 then bits := [];
    if scl = 1 && !prev_scl = 0 then begin
      if oe = 0 then begin
        incr releases;
        if !releases <= 3 then begin
          (* slave ack position: collect the byte shifted so far *)
          let byte = List.fold_left (fun a b -> (a * 2) + b) 0 (List.rev !bits) in
          bytes := byte :: !bytes;
          bits := []
        end
      end
      else bits := Rtl_sim.get_int sim "sda_out" :: !bits
    end;
    (* after the third release (address+R acked), serve data bits on
       falling edges while the master keeps SDA released *)
    if scl = 0 && !prev_scl = 1 && !releases >= 3 && !bits_served < 8 then begin
      let bit = (slave_byte lsr (7 - !bits_served)) land 1 in
      Rtl_sim.set_input_int sim "sda_in" bit;
      incr bits_served
    end;
    prev_scl := scl;
    prev_sda := sda_bus;
    incr guard
  done;
  Rtl_sim.run sim 20;
  (List.rev !bytes, Rtl_sim.get_int sim "rd_data",
   Rtl_sim.get_int sim "ack_error", Rtl_sim.get_int sim "done")

let test_i2c_read_transaction () =
  List.iter
    (fun make ->
      let bytes, rd, ack_err, done_ = run_i2c_read make ~slave_byte:0xA5 in
      Alcotest.(check (list int)) "addr+W, reg, addr+R on the bus"
        [ (0x48 * 2); 0x10; (0x48 * 2) + 1 ] bytes;
      Alcotest.(check int) "received byte" 0xA5 rd;
      Alcotest.(check int) "no ack error" 0 ack_err;
      Alcotest.(check int) "done" 1 done_)
    [
      (fun () -> Expocu.I2c.osss_module ());
      (fun () -> Expocu.I2c.systemc_module ());
      (fun () -> Expocu.I2c.vhdl_module ());
    ]

let test_i2c_read_timing () =
  Alcotest.(check int) "39 slots x 4 phases x 4" (39 * 16)
    (Expocu.I2c.read_transaction_cycles ~divider:4)

let test_i2c_nack_detected () =
  let sim = Rtl_sim.create (Expocu.I2c.osss_module ()) in
  start_i2c sim ~dev:0x48 ~reg:0x10 ~data:0xA5;
  Rtl_sim.set_input_int sim "sda_in" 1;
  (* no slave: NACK *)
  let _ = monitor_i2c sim ~max_cycles:1000 in
  Alcotest.(check int) "ack error" 1 (Rtl_sim.get_int sim "ack_error")

let test_i2c_three_way_equivalence () =
  let pairs =
    [
      (Expocu.I2c.osss_module (), Expocu.I2c.systemc_module ());
      (Expocu.I2c.osss_module (), Expocu.I2c.vhdl_module ());
    ]
  in
  List.iter
    (fun (a, b) ->
      match Backend.Equiv.ir_vs_ir ~cycles:2000 a b with
      | Ok _ -> ()
      | Error m ->
          Alcotest.failf "%s vs %s: %a" a.Ir.mod_name b.Ir.mod_name
            Backend.Equiv.pp_divergence m)
    pairs

let test_i2c_netlist_equivalent () =
  let design = Expocu.I2c.osss_module () in
  match
    Backend.Equiv.ir_vs_netlist ~cycles:600 design
      (Backend.Lower.lower design)
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_i2c_timing_budget () =
  let cycles = Expocu.I2c.transaction_cycles ~divider:4 in
  Alcotest.(check int) "29 slots x 4 phases x 4" (29 * 16) cycles

(* ------------------------- reset ctrl ------------------------- *)

let test_reset_ctrl () =
  List.iter
    (fun make ->
      let sim = Rtl_sim.create (make ()) in
      Rtl_sim.set_input_int sim "ext_reset" 0;
      Rtl_sim.step sim;
      Alcotest.(check int) "por asserted" 1 (Rtl_sim.get_int sim "sys_reset");
      Rtl_sim.run sim 12;
      Alcotest.(check int) "por released" 0 (Rtl_sim.get_int sim "sys_reset");
      Rtl_sim.set_input_int sim "ext_reset" 1;
      Rtl_sim.run sim 3;
      Alcotest.(check int) "external reset synchronized" 1
        (Rtl_sim.get_int sim "sys_reset");
      Rtl_sim.set_input_int sim "ext_reset" 0;
      (* release restarts the power-on stretcher: still in reset... *)
      Rtl_sim.run sim 4;
      Alcotest.(check int) "stretching after release" 1
        (Rtl_sim.get_int sim "sys_reset");
      (* ...until the stretch count elapses *)
      Rtl_sim.run sim 12;
      Alcotest.(check int) "released again" 0 (Rtl_sim.get_int sim "sys_reset"))
    [
      (fun () -> Expocu.Reset_ctrl.osss_module ());
      (fun () -> Expocu.Reset_ctrl.rtl_module ());
    ]

let test_reset_ctrl_equivalent () =
  match
    Backend.Equiv.ir_vs_ir ~cycles:500
      (Expocu.Reset_ctrl.osss_module ())
      (Expocu.Reset_ctrl.rtl_module ())
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

(* ------------------------- camera + golden loop ------------------------- *)

let test_camera_responds_to_exposure () =
  let cam = Expocu.Camera.create () in
  let dark = Expocu.Camera.mean_level (Expocu.Camera.frame cam ~exposure:0.5) in
  let bright = Expocu.Camera.mean_level (Expocu.Camera.frame cam ~exposure:4.0) in
  Alcotest.(check bool) "more exposure, brighter" true (bright > dark +. 20.0)

let test_golden_loop_converges () =
  let cam = Expocu.Camera.create ~illumination:0.1 () in
  let trace = Expocu.Exposure_algo.converge ~frames:40 ~camera:cam () in
  let _, final_gain = List.nth trace 39 in
  (* dark scene: the loop must raise the gain well above unity *)
  Alcotest.(check bool) "gain raised" true (final_gain > 1.5);
  let medians = List.map fst trace in
  let last_median = List.nth medians 39 in
  Alcotest.(check bool) "median pulled toward target" true
    (abs (last_median - 7) <= 2)

(* ------------------------- full ExpoCU ------------------------- *)

(* Drive one frame through a top-level and return (median, exposure). *)
let run_frame sim (frame : int array) =
  Alcotest.(check bool) "frame completed" true
    (Expocu.Expocu_top.drive_frame ~set:(Rtl_sim.set_input_int sim)
       ~step:(fun () -> Rtl_sim.step sim)
       ~read:(Rtl_sim.get_int sim) ~pixels:(Array.length frame)
       ~pixel:(fun i -> Rtl_sim.set_input_int sim "pixel" frame.(i))
       ());
  (Rtl_sim.get_int sim "median_bin", Rtl_sim.get_int sim "exposure")

let test_top_closed_loop () =
  List.iter
    (fun make ->
      let sim = Rtl_sim.create (make ()) in
      let frame = Array.init 256 (fun i -> i mod 48) in
      (* dark frame *)
      let median, exposure = run_frame sim frame in
      let want_median =
        Expocu.Exposure_algo.median_bin
          (Expocu.Exposure_algo.histogram ~bins:16 frame)
      in
      Alcotest.(check int) "hardware median = golden" want_median median;
      let want_exposure =
        Expocu.Param_calc.golden_update
          ~exposure:Expocu.Param_calc.gain_unity ~median:want_median ~target:7
      in
      Alcotest.(check int) "hardware exposure = golden" want_exposure exposure)
    [
      (fun () -> Expocu.Expocu_top.osss_top ());
      (fun () -> Expocu.Expocu_top.rtl_top ());
    ]

let test_behavioural_model () =
  let r = Expocu.Behave_model.run ~frames:3 ~illumination:0.08 () in
  Alcotest.(check int) "frames completed" 3 r.Expocu.Behave_model.frames;
  Alcotest.(check bool) "gain raised on dark scene" true
    (r.Expocu.Behave_model.final_gain > 1.0);
  Alcotest.(check bool) "simulated cycles plausible" true
    (r.Expocu.Behave_model.sim_cycles > 1000)

let test_tops_cycle_equivalent () =
  (* E8 core check: the OSSS and the conventional ExpoCU respond
     identically cycle by cycle to arbitrary stimulus. *)
  match
    Backend.Equiv.ir_vs_ir ~cycles:2500
      (Expocu.Expocu_top.osss_top ())
      (Expocu.Expocu_top.rtl_top ())
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

(* Property: random frames through the RTL histogram + threshold pair
   reproduce the golden median, for random bin configurations. *)
let prop_random_frames =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"random frames match golden median"
       QCheck2.Gen.(
         pair (int_range 0 1000)
           (list_size (int_range 10 120) (int_range 0 255)))
       (fun (seed, pixels) ->
         ignore seed;
         let pixels = Array.of_list pixels in
         let hist_sim = Rtl_sim.create (Expocu.Histogram.rtl_module ()) in
         Rtl_sim.set_input_int hist_sim "reset" 1;
         Rtl_sim.step hist_sim;
         Rtl_sim.set_input_int hist_sim "reset" 0;
         feed_pixels hist_sim pixels;
         let bins = read_bins hist_sim 16 in
         let golden_hist = Expocu.Exposure_algo.histogram ~bins:16 pixels in
         let median, _, _ = run_threshold Expocu.Threshold.osss_module bins in
         bins = golden_hist
         && median = Expocu.Exposure_algo.median_bin golden_hist))

let test_emitters_handle_full_chip () =
  (* Text generation must cover every construct the ExpoCU uses. *)
  List.iter
    (fun design ->
      let vhdl = Vhdl.emit design in
      let verilog = Verilog.emit design in
      let systemc = Osss.Resolve.emit_module (Elaborate.flatten design) in
      Alcotest.(check bool) "vhdl nonempty" true (String.length vhdl > 5000);
      Alcotest.(check bool) "verilog nonempty" true
        (String.length verilog > 5000);
      Alcotest.(check bool) "systemc nonempty" true
        (String.length systemc > 5000))
    [ Expocu.Expocu_top.osss_top (); Expocu.Expocu_top.rtl_top () ]

let test_netlist_verilog_full_chip () =
  let nl =
    Backend.Opt.optimize (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))
  in
  let text = Backend.Netlist.emit_verilog nl in
  Alcotest.(check bool) "structural verilog emitted" true
    (String.length text > 50_000)

let suite =
  [
    Alcotest.test_case "sync behaviour" `Quick test_sync_behaviour;
    Alcotest.test_case "sync styles equivalent" `Quick
      test_sync_styles_equivalent;
    Alcotest.test_case "sync netlist equivalent" `Quick
      test_sync_netlist_equivalent;
    Alcotest.test_case "sync zero overhead (E3)" `Quick test_sync_zero_overhead;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram styles equivalent" `Quick
      test_histogram_styles_equivalent;
    Alcotest.test_case "histogram netlist equivalent" `Quick
      test_histogram_netlist_equivalent;
    Alcotest.test_case "threshold median" `Quick test_threshold_median;
    Alcotest.test_case "threshold styles equivalent" `Quick
      test_threshold_styles_equivalent;
    Alcotest.test_case "param latency" `Quick test_param_latency;
    Alcotest.test_case "param matches golden" `Quick test_param_matches_golden;
    Alcotest.test_case "param styles equivalent" `Quick
      test_param_styles_equivalent;
    Alcotest.test_case "param netlist equivalent" `Quick
      test_param_netlist_equivalent;
    Alcotest.test_case "param clamps" `Quick test_param_clamps;
    Alcotest.test_case "ip mult module" `Quick test_ip_mult_module;
    Alcotest.test_case "ip netlist injection" `Quick test_ip_netlist_injection;
    Alcotest.test_case "i2c transaction" `Quick test_i2c_transaction;
    Alcotest.test_case "i2c read transaction" `Quick
      test_i2c_read_transaction;
    Alcotest.test_case "i2c read timing" `Quick test_i2c_read_timing;
    Alcotest.test_case "i2c nack" `Quick test_i2c_nack_detected;
    Alcotest.test_case "i2c three-way equivalence" `Quick
      test_i2c_three_way_equivalence;
    Alcotest.test_case "i2c netlist equivalent" `Quick
      test_i2c_netlist_equivalent;
    Alcotest.test_case "i2c timing budget" `Quick test_i2c_timing_budget;
    Alcotest.test_case "reset ctrl" `Quick test_reset_ctrl;
    Alcotest.test_case "reset ctrl equivalent" `Quick
      test_reset_ctrl_equivalent;
    Alcotest.test_case "camera exposure response" `Quick
      test_camera_responds_to_exposure;
    Alcotest.test_case "golden loop converges" `Quick
      test_golden_loop_converges;
    Alcotest.test_case "top closed loop" `Quick test_top_closed_loop;
    Alcotest.test_case "behavioural model" `Quick test_behavioural_model;
    Alcotest.test_case "tops cycle equivalent (E8)" `Quick
      test_tops_cycle_equivalent;
    prop_random_frames;
    Alcotest.test_case "emitters handle full chip" `Quick
      test_emitters_handle_full_chip;
    Alcotest.test_case "netlist verilog full chip" `Quick
      test_netlist_verilog_full_chip;
  ]

let () = Alcotest.run "expocu" [ ("expocu", suite) ]

(* Tests for four-state reset-coverage analysis: flip-flops power up
   unknown and the checker reports what a reset sequence fails to
   initialize. *)

open Hdl
open Builder.Dsl
module X = Backend.Xprop

(* Counter with a synchronous reset: fully initialized by reset. *)
let counter_with_reset () =
  let b = Builder.create "cnt_rst" in
  let reset = Builder.input b "reset" 1 in
  let count = Builder.output b "count" 8 in
  Builder.sync b "tick"
    [
      if_ (v reset)
        [ count <-- c ~width:8 0 ]
        [ count <-- (v count +: c ~width:8 1) ];
    ];
  Builder.finish b

(* Counter without any reset: stays unknown forever. *)
let counter_without_reset () =
  let b = Builder.create "cnt_free" in
  let _en = Builder.input b "en" 1 in
  let count = Builder.output b "count" 8 in
  Builder.sync b "tick" [ count <-- (v count +: c ~width:8 1) ];
  Builder.finish b

let test_powerup_unknown () =
  let sim = X.create (Backend.Lower.lower (counter_with_reset ())) in
  X.set_input sim "reset" (Bitvec.of_int ~width:1 0);
  X.settle sim;
  Alcotest.(check string) "all X at power-up" "xxxxxxxx"
    (X.output_string sim "count");
  Alcotest.(check bool) "output unknown" false (X.output_known sim "count")

let test_reset_initializes () =
  let sim = X.create (Backend.Lower.lower (counter_with_reset ())) in
  X.set_input sim "reset" (Bitvec.of_int ~width:1 1);
  X.step sim;
  Alcotest.(check string) "known zero after reset" "00000000"
    (X.output_string sim "count");
  Alcotest.(check int) "no unknown ffs" 0 (X.unknown_ffs sim);
  X.set_input sim "reset" (Bitvec.of_int ~width:1 0);
  X.run sim 3;
  Alcotest.(check string) "counts cleanly" "00000011"
    (X.output_string sim "count")

let test_missing_reset_detected () =
  let sim = X.create (Backend.Lower.lower (counter_without_reset ())) in
  X.set_input sim "en" (Bitvec.of_int ~width:1 1);
  X.run sim 20;
  (* X + 1 stays X forever *)
  Alcotest.(check bool) "still unknown" true (X.unknown_ffs sim > 0);
  match X.unknown_outputs sim with
  | [ ("count", n) ] -> Alcotest.(check bool) "bits flagged" true (n > 0)
  | _ -> Alcotest.fail "expected count to be flagged"

let test_unknown_inputs_propagate () =
  let b = Builder.create "mixer" in
  let a = Builder.input b "a" 4 in
  let x = Builder.input b "x" 4 in
  let y = Builder.output b "y" 4 in
  Builder.comb b "mix" [ y <-- (v a &: v x) ];
  let sim = X.create (Backend.Lower.lower (Builder.finish b)) in
  X.set_input sim "a" (Bitvec.of_int ~width:4 0b0011);
  X.set_input_x sim "x";
  X.settle sim;
  (* AND with 0 is 0 even against X; AND with 1 stays X *)
  Alcotest.(check string) "controlling zeros win" "00xx"
    (X.output_string sim "y")

let test_i2c_outputs_known_after_reset () =
  (* The I2C master gates its unknown shift register behind the running
     flag, so all bus outputs are defined right after reset — which a
     two-valued simulator could never demonstrate. *)
  let nl = Backend.Lower.lower (Expocu.I2c.osss_module ()) in
  let sim = X.create nl in
  X.set_input sim "reset" (Bitvec.of_int ~width:1 1);
  X.set_input sim "go" (Bitvec.of_int ~width:1 0);
  X.set_input sim "dev_addr" (Bitvec.of_int ~width:7 0);
  X.set_input sim "reg_addr" (Bitvec.of_int ~width:8 0);
  X.set_input sim "data" (Bitvec.of_int ~width:8 0);
  X.set_input sim "sda_in" (Bitvec.of_int ~width:1 1);
  X.step sim;
  X.set_input sim "reset" (Bitvec.of_int ~width:1 0);
  X.step sim;
  List.iter
    (fun out ->
      Alcotest.(check bool) (out ^ " known") true (X.output_known sim out))
    [ "scl"; "sda_out"; "sda_oe"; "busy"; "done"; "ack_error" ]

let test_expocu_reset_coverage () =
  (* Full chip: the external reset pulse plus the POR stretcher must
     leave nothing unknown. *)
  let nl = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  let sim = X.create nl in
  (* the external reset is the only initialization the chip gets *)
  X.set_input sim "ext_reset" (Bitvec.of_int ~width:1 1);
  X.set_input sim "pixel" (Bitvec.of_int ~width:8 0);
  X.set_input sim "line_valid" (Bitvec.of_int ~width:1 0);
  X.set_input sim "frame_sync" (Bitvec.of_int ~width:1 0);
  X.set_input sim "sda_in" (Bitvec.of_int ~width:1 0);
  X.set_input sim "target_bin" (Bitvec.of_int ~width:8 7);
  X.run sim 4;
  X.set_input sim "ext_reset" (Bitvec.of_int ~width:1 0);
  X.run sim 15;
  (* control-path outputs must be defined after POR *)
  List.iter
    (fun out ->
      Alcotest.(check bool) (out ^ " known") true (X.output_known sim out))
    [ "scl"; "sda_oe"; "frame_done"; "exposure"; "median_bin" ];
  (* the POR-stretched sys_reset also clears the histogram, so the
     whole chip reaches a fully defined state from ext_reset alone *)
  Alcotest.(check int) "every flip-flop initialized" 0 (X.unknown_ffs sim)

(* Property: with every input driven, four-state simulation agrees
   with the two-valued simulator — X-pessimism never invents wrong
   known values. *)
let prop_known_inputs_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"known inputs: xprop = two-valued"
       QCheck2.Gen.(pair (int_range 0 255) (int_range 0 255))
       (fun (a_val, b_val) ->
         let b = Builder.create "xp_prop" in
         let a = Builder.input b "a" 8 in
         let x = Builder.input b "x" 8 in
         let y = Builder.output b "y" 8 in
         let z = Builder.output b "z" 1 in
         Builder.comb b "f"
           [
             y <-- mux2 (v a <: v x) (v a +: v x) (v a ^: v x);
             z <-- (v a ==: v x);
           ];
         let nl = Backend.Lower.lower (Builder.finish b) in
         let xp = X.create nl in
         let tv = Backend.Nl_sim.create nl in
         X.set_input xp "a" (Bitvec.of_int ~width:8 a_val);
         X.set_input xp "x" (Bitvec.of_int ~width:8 b_val);
         Backend.Nl_sim.set_input_int tv "a" a_val;
         Backend.Nl_sim.set_input_int tv "x" b_val;
         X.settle xp;
         Backend.Nl_sim.settle tv;
         X.output_known xp "y"
         && X.output_string xp "y"
            = Bitvec.to_binary_string (Backend.Nl_sim.get_output tv "y")
         && X.output_string xp "z"
            = Bitvec.to_binary_string (Backend.Nl_sim.get_output tv "z")))

(* The "ring" netlist of the backend loop test: a rewired cell input
   closes a combinational cycle, which four-state analysis must refuse
   exactly like the two-valued simulator, naming net and design. *)
let test_loop_detection () =
  let module N = Backend.Netlist in
  let nl = N.create ~fold:false ~name:"ring" () in
  let a = N.add_input nl "a" 1 in
  let g1 = N.and2 nl a.(0) a.(0) in
  let g2 = N.or2 nl g1 a.(0) in
  let cell_of out = List.find (fun (c : N.cell) -> c.out = out) (N.cells nl) in
  (cell_of g1).ins.(1) <- g2;
  Alcotest.check_raises "loop raises"
    (Backend.Nl_sim.Combinational_loop { module_name = "ring"; net = g1 })
    (fun () -> ignore (X.create nl))

let suite =
  [
    Alcotest.test_case "power-up unknown" `Quick test_powerup_unknown;
    Alcotest.test_case "reset initializes" `Quick test_reset_initializes;
    Alcotest.test_case "missing reset detected" `Quick
      test_missing_reset_detected;
    Alcotest.test_case "unknown inputs propagate" `Quick
      test_unknown_inputs_propagate;
    Alcotest.test_case "i2c outputs known after reset" `Quick
      test_i2c_outputs_known_after_reset;
    Alcotest.test_case "expocu reset coverage" `Quick
      test_expocu_reset_coverage;
    Alcotest.test_case "loop detection" `Quick test_loop_detection;
    prop_known_inputs_agree;
  ]

let () = Alcotest.run "xprop" [ ("xprop", suite) ]

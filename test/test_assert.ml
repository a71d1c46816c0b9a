(* Tests for the temporal assertion monitor, including real I2C
   protocol assertions on the ExpoCU's bus master. *)

open Hdl
module A = Assert_mon

let counter_design () =
  let open Builder.Dsl in
  let b = Builder.create "acounter" in
  let reset = Builder.input b "reset" 1 in
  let count = Builder.output b "count" 8 in
  let odd = Builder.output b "odd" 1 in
  Builder.sync b "tick"
    [
      if_ (v reset)
        [ count <-- c ~width:8 0 ]
        [ count <-- (v count +: c ~width:8 1) ];
    ];
  Builder.comb b "flags" [ odd <-- bit (v count) 0 ];
  Builder.finish b

let test_always_holds () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  (* parity flag consistent with counter bit 0 *)
  A.add mon
    (A.always ~label:"odd consistent" (fun s ->
         Rtl_sim.get_int s "odd" = Rtl_sim.get_int s "count" land 1));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 50;
  A.finish mon;
  Alcotest.(check bool) "no violations" true (A.ok mon)

let test_always_fails_and_reports_cycle () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  A.add mon (A.never ~label:"count below 5" (A.port_eq "count" 5));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 20;
  A.finish mon;
  match A.violations mon with
  | [ v ] ->
      Alcotest.(check string) "label" "count below 5" v.A.label;
      Alcotest.(check int) "at cycle" 6 v.A.at_cycle
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_implies_next () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  (* count=3 implies count=4 next cycle (true once reset released) *)
  A.add mon
    (A.implies_next ~label:"3 then 4" (A.port_eq "count" 3)
       (A.port_eq "count" 4));
  (* deliberately false property to check detection *)
  A.add mon
    (A.implies_next ~label:"3 then 9" (A.port_eq "count" 3)
       (A.port_eq "count" 9));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 20;
  A.finish mon;
  let labels = List.map (fun v -> v.A.label) (A.violations mon) in
  Alcotest.(check (list string)) "only the false one fires" [ "3 then 9" ]
    labels

let test_eventually_within () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  A.add mon
    (A.eventually_within ~label:"wraps in time" (A.port_eq "count" 250) 10
       (A.port_eq "count" 0));
  A.add mon
    (A.eventually_within ~label:"too tight" (A.port_eq "count" 250) 2
       (A.port_eq "count" 0));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 300;
  A.finish mon;
  let labels = List.map (fun v -> v.A.label) (A.violations mon) in
  Alcotest.(check (list string)) "tight bound fires" [ "too tight" ] labels

let test_open_obligation_at_finish () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  A.add mon
    (A.eventually_within ~label:"unreachable" (A.port_eq "count" 3) 1000
       (A.port_eq "count" 99));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 10;
  A.finish mon;
  Alcotest.(check bool) "open obligation reported" false (A.ok mon)

(* ------------------------------------------------------------------ *)
(* I2C protocol assertions on the real bus master — the property
   bundle now lives in the library (Expocu.Monitors) so simulations
   and coverage reports share it with this test. *)

let test_i2c_protocol_assertions () =
  List.iter
    (fun make ->
      let sim = Rtl_sim.create (make ()) in
      let mon = A.create sim in
      Expocu.Monitors.add_i2c_props mon;
      Rtl_sim.set_input_int sim "reset" 1;
      A.step mon;
      Rtl_sim.set_input_int sim "reset" 0;
      Rtl_sim.set_input_int sim "sda_in" 0;
      Rtl_sim.set_input_int sim "dev_addr" 0x2A;
      Rtl_sim.set_input_int sim "reg_addr" 0x55;
      Rtl_sim.set_input_int sim "data" 0xC3;
      Rtl_sim.set_input_int sim "go" 1;
      A.step mon;
      Rtl_sim.set_input_int sim "go" 0;
      A.run mon (Expocu.I2c.transaction_cycles ~divider:4 + 64);
      A.finish mon;
      List.iter
        (fun v -> Format.printf "%a@." A.pp_violation v)
        (A.violations mon);
      Alcotest.(check bool) "protocol clean" true (A.ok mon))
    [
      (fun () -> Expocu.I2c.osss_module ());
      (fun () -> Expocu.I2c.systemc_module ());
      (fun () -> Expocu.I2c.vhdl_module ());
    ]

let test_i2c_assertion_catches_violation () =
  (* Same properties against a deliberately broken setup: the monitor
     must flag a missing completion when go is never consumed because
     reset is held. *)
  let sim = Rtl_sim.create (Expocu.I2c.osss_module ()) in
  let mon = A.create sim in
  Expocu.Monitors.add_i2c_props mon;
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.set_input_int sim "go" 1;
  A.run mon 40;
  A.finish mon;
  Alcotest.(check bool) "missing done detected" false (A.ok mon)

(* ------------------------------------------------------------------ *)
(* Outcome counting: real vs vacuous passes                            *)

let test_outcome_counts () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  (* count=3 happens exactly once in 10 cycles; every other cycle the
     implication holds only vacuously *)
  A.add mon (A.implies_same ~label:"imp" (A.port_eq "count" 3) (A.port "odd"));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 9;
  A.finish mon;
  match A.summaries mon with
  | [ s ] ->
      Alcotest.(check string) "label" "imp" s.A.s_label;
      Alcotest.(check int) "one real pass" 1 s.A.passes;
      Alcotest.(check int) "rest vacuous" 9 s.A.vacuous;
      Alcotest.(check int) "no fails" 0 s.A.fails
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

let test_db_monitors_and_json () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  A.add mon (A.always ~label:"tauto" (fun _ -> true));
  A.add mon (A.never ~label:"hits five" (A.port_eq "count" 5));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 10;
  A.finish mon;
  (match A.db_monitors mon with
  | [ t; h ] ->
      Alcotest.(check string) "add order kept" "tauto" t.Cover.Db.m_name;
      Alcotest.(check int) "tauto passes every cycle" 11 t.Cover.Db.m_pass;
      Alcotest.(check int) "never records the hit" 1 h.Cover.Db.m_fail;
      Alcotest.(check int) "and passes the rest" 10 h.Cover.Db.m_pass
  | l -> Alcotest.failf "expected two monitors, got %d" (List.length l));
  let j = A.to_json mon in
  (match Obs.Json.member "ok" j with
  | Some (Obs.Json.Bool false) -> ()
  | _ -> Alcotest.fail "ok flag should be false");
  (match Obs.Json.member "props" j with
  | Some (Obs.Json.List l) ->
      Alcotest.(check int) "two props serialized" 2 (List.length l)
  | _ -> Alcotest.fail "no props list");
  match Obs.Json.member "violations" j with
  | Some (Obs.Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "expected exactly one serialized violation"

let test_expocu_monitor_clean () =
  (* The self-attaching top-level monitor stays clean over reset plus
     one small frame of the real ExpoCU, and its checks actually ran. *)
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  let mon = Expocu.Monitors.expocu_monitor sim in
  ignore
    (Expocu.Expocu_top.drive_frame ~set:(Rtl_sim.set_input_int sim)
       ~step:(fun () -> Rtl_sim.step sim)
       ~read:(Rtl_sim.get_int sim) ~pixels:32
       ~pixel:(fun px -> Rtl_sim.set_input_int sim "pixel" (px * 8 mod 256))
       ());
  A.finish mon;
  List.iter (fun v -> Format.printf "%a@." A.pp_violation v) (A.violations mon);
  Alcotest.(check bool) "monitor clean on the real top" true (A.ok mon);
  let framing =
    List.find (fun s -> s.A.s_label = "i2c.sda_framing") (A.summaries mon)
  in
  Alcotest.(check bool) "framing checked non-vacuously" true
    (framing.A.passes > 0)

let test_rose_helper () =
  let sim = Rtl_sim.create (counter_design ()) in
  let mon = A.create sim in
  let prev = ref false in
  let rising_bit0 = A.rose (fun s -> Rtl_sim.get_int s "odd" = 1) prev in
  let count = ref 0 in
  A.add mon
    (A.always (fun s ->
         if rising_bit0 s then incr count;
         true));
  Rtl_sim.set_input_int sim "reset" 1;
  A.step mon;
  Rtl_sim.set_input_int sim "reset" 0;
  A.run mon 20;
  (* bit0 rises every other cycle: 10 times in 20 cycles *)
  Alcotest.(check int) "edge count" 10 !count

let suite =
  [
    Alcotest.test_case "always holds" `Quick test_always_holds;
    Alcotest.test_case "violation reported" `Quick
      test_always_fails_and_reports_cycle;
    Alcotest.test_case "implies next" `Quick test_implies_next;
    Alcotest.test_case "eventually within" `Quick test_eventually_within;
    Alcotest.test_case "open obligation" `Quick test_open_obligation_at_finish;
    Alcotest.test_case "i2c protocol assertions" `Quick
      test_i2c_protocol_assertions;
    Alcotest.test_case "i2c assertion catches violation" `Quick
      test_i2c_assertion_catches_violation;
    Alcotest.test_case "outcome counts" `Quick test_outcome_counts;
    Alcotest.test_case "db monitors and json" `Quick
      test_db_monitors_and_json;
    Alcotest.test_case "expocu monitor clean" `Quick test_expocu_monitor_clean;
    Alcotest.test_case "rose helper" `Quick test_rose_helper;
  ]

let () = Alcotest.run "assert" [ ("assert", suite) ]

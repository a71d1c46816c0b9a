(* Word-parallel netlist simulation: every lane of a 1/63/64/130-lane
   run equals the 1-lane full-eval run of its own stimulus stream (both
   scheduling modes, with a checkpoint/restore replay), per-lane
   stimulus through the packed/transpose API, per-lane stuck-at faults
   with packed divergence detection, the lane-parallel fault campaign,
   the Engine word backend with lane-pinned fault injection, and
   per-lane toggle coverage. *)

open Hdl
open Builder.Dsl
module N = Backend.Netlist
module Ws = Backend.Nl_wsim

let alu_design () =
  let b = Builder.create "mini_alu" in
  let op = Builder.input b "op" 2 in
  let a = Builder.input b "a" 8 in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  Builder.comb b "alu"
    [
      case (v op)
        [
          (0, [ y <-- (v a +: v x) ]);
          (1, [ y <-- (v a -: v x) ]);
          (2, [ y <-- (v a &: v x) ]);
        ]
        [ y <-- (v a ^: v x) ];
    ];
  Builder.finish b

let counter_design () =
  let b = Builder.create "counter" in
  let reset = Builder.input b "reset" 1 in
  let count = Builder.output b "count" 8 in
  Builder.sync b "tick"
    [
      if_ (v reset)
        [ count <-- c ~width:8 0 ]
        [ count <-- (v count +: c ~width:8 1) ];
    ];
  Builder.finish b

let random_bv rng width = Bitvec.init width (fun _ -> Random.State.bool rng)

(* Subscribe a toggle collector to one lane of a word simulator. *)
let lane_toggles w lane =
  let c = Cover.Toggle.create ~names:(Backend.Nl_sim.Sched.net_labels (Ws.netlist w)) in
  Ws.observe w ~lane (fun _ -> Cover.Toggle.tap c);
  c

(* Per-slot (rises, falls) of a collector. *)
let edges c =
  List.init (Cover.Toggle.bits c) (fun i ->
      (Cover.Toggle.rises c i, Cover.Toggle.falls c i))

(* ------------------------------------------------------------------ *)
(* Lane independence: every lane of a wide simulation is the 1-lane
   full-eval run of that lane's stimulus stream.                       *)

(* A small sequential netlist plus its stimulus, in a printable form so
   a shrunk counterexample can be kept in fixtures/lane_cases.txt.
   Operand picks index, modulo its current length, the list of nets
   built so far: input bits, then flip-flop outputs, then one net per
   gate. *)
type lane_case = {
  seed : int;
  cycles : int;
  live : int;  (* lanes below this one hold their inputs at 0 *)
  widths : int list;  (* input ports i0, i1, ... *)
  gates : (int * int * int * int) list;  (* kind, operand picks *)
  ffs : int list;  (* D pick per flip-flop *)
  outs : int list;  (* bit picks of output port "o" *)
}

let case_to_string c =
  let ints l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf "%d %d %d | %s | %s | %s | %s" c.seed c.cycles c.live
    (ints c.widths)
    (String.concat " "
       (List.map
          (fun (k, a, b, s) -> Printf.sprintf "%d.%d.%d.%d" k a b s)
          c.gates))
    (ints c.ffs) (ints c.outs)

let case_of_string line =
  let fields sep s =
    List.filter (( <> ) "") (String.split_on_char sep (String.trim s))
  in
  let ints s = List.map int_of_string (fields ' ' s) in
  match String.split_on_char '|' line with
  | [ head; widths; gates; ffs; outs ] -> (
      match ints head with
      | [ seed; cycles; live ] ->
          let gate g =
            match List.map int_of_string (fields '.' g) with
            | [ k; a; b; s ] -> (k, a, b, s)
            | _ -> failwith ("bad gate " ^ g)
          in
          {
            seed;
            cycles;
            live;
            widths = ints widths;
            gates = List.map gate (fields ' ' gates);
            ffs = ints ffs;
            outs = ints outs;
          }
      | _ -> failwith ("bad case " ^ line))
  | _ -> failwith ("bad case " ^ line)

let gen_lane_case =
  let open QCheck2.Gen in
  let pick = int_bound 63 in
  let* seed = int_bound 9999
  and* cycles = int_range 1 8
  and* live = oneofl [ 0; 0; 1; 63; 64; 127 ]
  and* widths = list_size (int_range 1 3) (int_range 1 3)
  and* gates = list_size (int_range 1 12) (tup4 (int_bound 8) pick pick pick)
  and* ffs = list_size (int_range 0 4) pick
  and* outs = list_size (int_range 1 4) pick in
  return { seed; cycles; live; widths; gates; ffs; outs }

let case_netlist c =
  let nl = N.create ~fold:false ~name:"lane_case" () in
  let avail = ref [||] in
  let add n = avail := Array.append !avail [| n |] in
  let get k = !avail.(k mod Array.length !avail) in
  List.iteri
    (fun i w -> Array.iter add (N.add_input nl (Printf.sprintf "i%d" i) w))
    c.widths;
  let qs = List.map (fun _ -> N.dff_deferred nl) c.ffs in
  List.iter add qs;
  List.iter
    (fun (k, a, b, s) ->
      add
        (match k with
        | 0 -> N.const0 nl
        | 1 -> N.const1 nl
        | 2 -> N.not_ nl (get a)
        | 3 -> N.and2 nl (get a) (get b)
        | 4 -> N.or2 nl (get a) (get b)
        | 5 -> N.xor2 nl (get a) (get b)
        | 6 -> N.nand2 nl (get a) (get b)
        | 7 -> N.nor2 nl (get a) (get b)
        | _ -> N.mux2 nl ~sel:(get s) (get a) (get b)))
    c.gates;
  List.iter2 (fun q d -> N.connect_dff nl ~q ~d:(get d)) qs c.ffs;
  N.add_output nl "o" (Array.of_list (List.map get c.outs));
  nl

(* Lane [lane]'s value of input port [i] at [cycle]: a function of the
   lane, never of how many lanes run beside it.  Quiet low lanes leave
   whole words unmoved while higher words change. *)
let lane_input c ~lane ~cycle i =
  let width = List.nth c.widths i in
  if lane < c.live then Bitvec.zero width
  else random_bv (Random.State.make [| c.seed; lane; cycle; i |]) width

(* Per-cycle outputs and final per-slot (rises, falls) of one lane. *)
let reference c nl lane =
  let sim = Backend.Nl_sim.create ~mode:Backend.Nl_sim.Full_eval nl in
  Backend.Nl_sim.enable_toggle_cover sim;
  let outs =
    List.init c.cycles (fun cycle ->
        List.iteri
          (fun i _ ->
            Backend.Nl_sim.set_input sim (Printf.sprintf "i%d" i)
              (lane_input c ~lane ~cycle i))
          c.widths;
        Backend.Nl_sim.step sim;
        Backend.Nl_sim.get_output_int sim "o")
  in
  (outs, edges (Option.get (Backend.Nl_sim.toggle_cover sim)))

(* The same streams through one [lanes]-wide simulation: stimulus packed
   on even cycles, lane by lane on odd ones.  Half-way through, a
   checkpoint is taken; after the last cycle the simulation is rewound
   and the second half replayed, which must repeat its outputs. *)
let lane_run c nl ~mode ~lanes =
  let sim = Backend.Nl_sim.create ~mode ~lanes nl in
  let covers = Array.init lanes (lane_toggles sim) in
  let cycle_outs cycle =
    List.iteri
      (fun i _ ->
        let name = Printf.sprintf "i%d" i in
        let per_lane =
          Array.init lanes (fun lane -> lane_input c ~lane ~cycle i)
        in
        if cycle mod 2 = 0 then
          Backend.Nl_sim.set_input_packed sim name (Bitvec.transpose per_lane)
        else
          Array.iteri
            (fun lane bv -> Backend.Nl_sim.set_input_lane sim ~lane name bv)
            per_lane)
      c.widths;
    Backend.Nl_sim.step sim;
    Array.init lanes (fun lane -> Backend.Nl_sim.get_output_int ~lane sim "o")
  in
  let half = c.cycles / 2 in
  let first = List.init half cycle_outs in
  let ck = Backend.Nl_sim.checkpoint sim in
  let second = List.init (c.cycles - half) (fun k -> cycle_outs (half + k)) in
  let lane_edges = Array.map edges covers in
  Backend.Nl_sim.restore sim ck;
  let replay = List.init (c.cycles - half) (fun k -> cycle_outs (half + k)) in
  (first @ second, lane_edges, second = replay)

let lane_counts = [ 1; 63; 64; 130 ]

(* None, or what differed first. *)
let check_lane_case c =
  let nl = case_netlist c in
  let refs = Array.init (List.fold_left max 0 lane_counts) (reference c nl) in
  List.concat_map
    (fun lanes ->
      List.map
        (fun mode -> (lanes, mode))
        Backend.Nl_sim.[ Event_driven; Full_eval ])
    lane_counts
  |> List.find_map (fun (lanes, mode) ->
         let outs, lane_edges, replayed = lane_run c nl ~mode ~lanes in
         let what =
           Printf.sprintf "%d lanes, %s" lanes
             (if mode = Backend.Nl_sim.Event_driven then "event" else "full")
         in
         if not replayed then Some (what ^ ": replay after restore differs")
         else
           List.find_map
             (fun lane ->
               let ref_outs, ref_edges = refs.(lane) in
               if List.map (fun o -> o.(lane)) outs <> ref_outs then
                 Some (Printf.sprintf "%s: lane %d outputs" what lane)
               else if lane_edges.(lane) <> ref_edges then
                 Some (Printf.sprintf "%s: lane %d rises/falls" what lane)
               else None)
             (List.init lanes Fun.id))

let prop_lanes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"lanes equal 1-lane full-eval runs"
       ~print:case_to_string gen_lane_case (fun c ->
         match check_lane_case c with
         | None -> true
         | Some what -> QCheck2.Test.fail_report what))

(* Shrunk counterexamples of the property, kept as regression cases. *)
let test_lane_cases () =
  let ic =
    open_in
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "fixtures/lane_cases.txt")
  in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic |> String.split_on_char '\n')
  in
  List.iter
    (fun line ->
      if String.trim line <> "" && line.[0] <> '#' then
        match check_lane_case (case_of_string line) with
        | None -> ()
        | Some what -> Alcotest.failf "%s: %s" line what)
    lines

let test_wsim_loop_detection () =
  let nl = N.create ~fold:false ~name:"ring" () in
  let a = N.add_input nl "a" 1 in
  let g1 = N.and2 nl a.(0) a.(0) in
  let g2 = N.or2 nl g1 a.(0) in
  let cell_of out = List.find (fun (c : N.cell) -> c.out = out) (N.cells nl) in
  (cell_of g1).ins.(1) <- g2;
  Alcotest.check_raises "loop raises"
    (Backend.Nl_sim.Combinational_loop { module_name = "ring"; net = g1 })
    (fun () -> ignore (Ws.create ~lanes:2 nl));
  let sane = Backend.Lower.lower (counter_design ()) in
  Alcotest.(check bool)
    "lanes < 1 rejected" true
    (try
       ignore (Ws.create ~lanes:0 sane);
       false
     with Invalid_argument _ -> true)

let test_per_lane_stimulus () =
  let nl = Backend.Lower.lower (alu_design ()) in
  let cases =
    [|
      (0, 200, 100);
      (1, 100, 30);
      (2, 0xCC, 0xAA);
      (3, 0xCC, 0xAA);
      (0, 1, 2);
      (1, 5, 9);
      (2, 0xF0, 0x3C);
    |]
  in
  let lanes = Array.length cases in
  let scalar = Backend.Nl_sim.create nl in
  let expected =
    Array.map
      (fun (op, a, x) ->
        Backend.Nl_sim.set_input_int scalar "op" op;
        Backend.Nl_sim.set_input_int scalar "a" a;
        Backend.Nl_sim.set_input_int scalar "x" x;
        Backend.Nl_sim.settle scalar;
        Backend.Nl_sim.get_output scalar "y")
      cases
  in
  (* Lane at a time. *)
  let w = Ws.create ~lanes nl in
  Array.iteri
    (fun l (op, a, x) ->
      Ws.set_input_lane w ~lane:l "op" (Bitvec.of_int ~width:2 op);
      Ws.set_input_lane w ~lane:l "a" (Bitvec.of_int ~width:8 a);
      Ws.set_input_lane w ~lane:l "x" (Bitvec.of_int ~width:8 x))
    cases;
  Ws.settle w;
  Array.iteri
    (fun l _ ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d matches scalar" l)
        true
        (Bitvec.equal expected.(l) (Ws.get_output ~lane:l w "y")))
    cases;
  (* All lanes in one packed call, recovered through transpose. *)
  let w2 = Ws.create ~lanes nl in
  let column f width =
    Bitvec.transpose
      (Array.map (fun case -> Bitvec.of_int ~width (f case)) cases)
  in
  Ws.set_input_packed w2 "op" (column (fun (op, _, _) -> op) 2);
  Ws.set_input_packed w2 "a" (column (fun (_, a, _) -> a) 8);
  Ws.set_input_packed w2 "x" (column (fun (_, _, x) -> x) 8);
  Ws.settle w2;
  let per_lane_y = Bitvec.transpose (Ws.get_output_packed w2 "y") in
  Array.iteri
    (fun l _ ->
      Alcotest.(check bool)
        (Printf.sprintf "packed lane %d matches scalar" l)
        true
        (Bitvec.equal expected.(l) per_lane_y.(l)))
    cases

let test_stuck_at_lanes () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  let w = Ws.create ~lanes:4 nl in
  Ws.set_input_int w "reset" 1;
  Ws.step w;
  Ws.set_input_int w "reset" 0;
  Ws.inject_stuck_at w ~lane:1 ~net:count.(0) ~value:true;
  Ws.inject_stuck_at w ~lane:2 ~net:count.(1) ~value:false;
  Alcotest.(check int) "two faults live" 2 (Ws.faults w);
  Ws.run w 4;
  Alcotest.(check int) "golden lane counts" 4 (Ws.get_output_int w "count");
  Alcotest.(check int) "clean lane matches golden" 4
    (Ws.get_output_int ~lane:3 w "count");
  Alcotest.(check (list int))
    "faulty lanes detected" [ 1; 2 ]
    (Ws.diverging_lanes w "count")

let test_stuck_at_multiword () =
  (* Faults in lanes beyond the first machine word must inject and
     detect exactly like word-0 lanes. *)
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  let w = Ws.create ~lanes:70 nl in
  Ws.set_input_int w "reset" 1;
  Ws.step w;
  Ws.set_input_int w "reset" 0;
  List.iter
    (fun lane -> Ws.inject_stuck_at w ~lane ~net:count.(0) ~value:true)
    [ 1; 64; 68 ];
  Ws.run w 4;
  Alcotest.(check (list int))
    "faulty lanes across words detected" [ 1; 64; 68 ]
    (Ws.diverging_lanes w "count")

let test_fault_campaign () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  let faults =
    [
      { Backend.Equiv.fault_net = count.(0); stuck_at = true };
      { Backend.Equiv.fault_net = count.(2); stuck_at = false };
    ]
  in
  let c = Backend.Equiv.fault_campaign ~cycles:300 ~seed:7 nl faults in
  Alcotest.(check int) "faults simulated" 2 c.Backend.Equiv.faults_total;
  Alcotest.(check int) "all faults detected" 2 c.Backend.Equiv.faults_detected;
  Alcotest.(check bool)
    "campaign stops early" true
    (c.Backend.Equiv.campaign_cycles <= 300);
  List.iter
    (fun (r : Backend.Equiv.fault_result) ->
      (match r.detected_at with
      | None -> Alcotest.failf "%a" Backend.Equiv.pp_fault_result r
      | Some cyc ->
          Alcotest.(check bool)
            "detected within the campaign" true
            (cyc < c.Backend.Equiv.campaign_cycles));
      match r.shrunk with
      | None -> Alcotest.fail "detected fault has no shrunk reproducer"
      | Some d ->
          Alcotest.(check bool)
            "shrunk window non-empty" true
            (Array.length d.Backend.Equiv.window > 0);
          Alcotest.(check bool)
            "shrunk window replays" true
            (d.Backend.Equiv.replay <> None))
    c.Backend.Equiv.fault_results

let test_word_engine () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let e = Backend.Nl_engine.create_word ~lanes:8 nl in
  Alcotest.(check string) "word kind" "netlist-word" (Engine.kind e);
  Alcotest.(check int) "word lanes" 8 (Engine.lanes e);
  let s = Backend.Nl_engine.create nl in
  Alcotest.(check int) "scalar lanes" 1 (Engine.lanes s);
  Engine.set_input_int e "reset" 1;
  Engine.step e;
  Engine.set_input_int e "reset" 0;
  Engine.run e 3;
  Alcotest.(check int) "broadcast counts" 3 (Engine.get_int e "count");
  let f = Engine.inject_fault ~port:"count" e in
  Alcotest.(check string) "label names the port" "netlist-word+fault:count"
    (Engine.label f);
  Alcotest.(check int) "wrapper keeps the lanes" 8 (Engine.lanes f);
  Alcotest.(check int) "faulted view flips bit 0" (3 lxor 1)
    (Engine.get_int f "count")

let test_lane_cover () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let w = Ws.create ~lanes:3 nl in
  let covers = Array.init 3 (lane_toggles w) in
  Ws.set_input_int w "reset" 1;
  Ws.step w;
  Ws.set_input_int w "reset" 0;
  for _ = 1 to 8 do
    (* Hold lane 2 in reset while lanes 0 and 1 count. *)
    Ws.set_input_lane w ~lane:2 "reset" (Bitvec.of_bool true);
    Ws.step w
  done;
  let cov l = covers.(l) in
  Alcotest.(check int) "identical stimulus, identical coverage"
    (Cover.Toggle.covered (cov 0))
    (Cover.Toggle.covered (cov 1));
  Alcotest.(check bool)
    "held lane covers strictly less" true
    (Cover.Toggle.covered (cov 2) < Cover.Toggle.covered (cov 0))

(* Bitvec.transpose is an involution on rectangular arrays. *)
let prop_transpose =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"transpose involution"
       QCheck2.Gen.(
         int_range 1 24 >>= fun w ->
         int_range 1 40 >>= fun n ->
         array_size (return n) (array_size (return w) bool))
       (fun rows ->
         let bvs =
           Array.map
             (fun bits -> Bitvec.init (Array.length bits) (fun i -> bits.(i)))
             rows
         in
         let tt = Bitvec.transpose (Bitvec.transpose bvs) in
         Array.length tt = Array.length bvs
         && Array.for_all2 Bitvec.equal tt bvs))

let suite =
  [
    prop_lanes;
    Alcotest.test_case "lane regression cases" `Quick test_lane_cases;
    Alcotest.test_case "loop detection" `Quick test_wsim_loop_detection;
    Alcotest.test_case "per-lane stimulus" `Quick test_per_lane_stimulus;
    Alcotest.test_case "stuck-at lanes" `Quick test_stuck_at_lanes;
    Alcotest.test_case "stuck-at lanes (multi-word)" `Quick
      test_stuck_at_multiword;
    Alcotest.test_case "fault campaign" `Quick test_fault_campaign;
    Alcotest.test_case "word engine" `Quick test_word_engine;
    Alcotest.test_case "per-lane cover" `Quick test_lane_cover;
    prop_transpose;
  ]

let () = Alcotest.run "wsim" [ ("wsim", suite) ]

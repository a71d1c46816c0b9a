(* synth: the OSSS and conventional flows on the ExpoCU as a pair, from a
   cleared lowering cache (what a fresh osss_synth / design_report call
   pays), then technology mapping and place & route of both optimised
   netlists.  Nothing is simulated in the timed region.

   Untraced repetitions call [Synth.Flow.run].  Traced repetitions make
   its pass calls from outside — check, flatten, front-end emission,
   lower, opt and analysis, in [Flow.run]'s order — so each pass gets a
   wall-clock span.  [traced_flow] is a copy of those calls and has to
   follow [Flow.run] when it changes. *)

open Expocu

type design = { kind : Synth.Flow.kind; ir : Ir.module_def }

type state = {
  designs : design list;
  target : int;  (** of the closed-loop check *)
  sc : Loop.scenario;  (** lighting of the closed-loop check *)
  mutable ref_raw : string list;  (** raw netlist digest per design *)
  mutable ref_opt : string list;  (** optimised netlist digest per design *)
  mutable ref_figures : float * float;  (** OSSS area, fmax *)
  mutable ref_layout : Backend.Pnr.report list option;
  mutable flow : float list;
  mutable layout : float list;
}

(* The flow's inputs are the two designs; the seed only drives the
   closed-loop check of their netlists. *)
let setup ~seed =
  let rng = Random.State.make [| seed; 0x5E7 |] in
  let designs =
    [
      { kind = Synth.Flow.Osss; ir = Expocu_top.osss_top () };
      { kind = Synth.Flow.Vhdl; ir = Expocu_top.rtl_top () };
    ]
  in
  Backend.Lower.clear_cache ();
  let target = 5 + Random.State.int rng 5 in
  {
    designs;
    target;
    sc = Loop.scenario rng;
    ref_raw = [];
    ref_opt = [];
    ref_figures = (nan, nan);
    ref_layout = None;
    flow = [];
    layout = [];
  }

let digest nl = Digest.string (Backend.Netlist.emit_verilog nl)

(* Closed-loop frames on a gate netlist through the scenario's tunnel
   script, each checked against the golden control step.  Frames of
   1024 pixels overflow a histogram counter narrower than 16 bits. *)
let check_frames = 12

let closed_loop_check st ~what nl =
  let module N = Backend.Nl_sim in
  let sim = N.create nl in
  Loop.reset ~target:st.target (N.set_input_int sim) (fun () -> N.step sim);
  let camera = Camera.create ~width:64 ~height:16 ~seed:st.sc.Loop.cam_seed () in
  for frame = 0 to check_frames - 1 do
    let e0 = N.get_output_int sim "exposure" in
    Camera.set_illumination camera (Loop.illumination st.sc frame);
    let pixels = Camera.frame camera ~exposure:(Loop.gain e0) in
    let expect =
      Exposure_algo.control_step ~bins:Loop.bins ~target_bin:st.target ~exposure:e0
        pixels
    in
    let done_ =
      Loop.drive_frame ~set:(N.set_input_int sim)
        ~pixel:(fun i -> N.set_input_int sim "pixel" pixels.(i))
        ~step:(fun () -> N.step sim)
        ~get:(N.get_output_int sim) (Array.length pixels)
    in
    Tr.check ~what
      (done_ && (N.get_output_int sim "median_bin", N.get_output_int sim "exposure") = expect)
  done

(* Once per process, outside timing, lowering as a flow pair does (from a
   cleared cache, OSSS first).  Each raw netlist must follow its design
   in lockstep with [ext_reset] held released, and follow the closed loop
   frame for frame; every repetition's raw netlists must then match them.
   The optimised netlists are only checked for being the same in every
   repetition: [Backend.Opt.optimize] breaks the ExpoCU (README.md, known
   defects), so their function is reported on stderr and not claimed.
   (A BDD proof of raw against optimised does not apply either: it
   reports dropped register bits as an interface mismatch, and the
   design exceeds its size limit.) *)
let reference st =
  Backend.Lower.clear_cache ();
  let refs =
    List.map
      (fun d ->
        let raw = Backend.Lower.lower d.ir in
        let opt = Backend.Opt.optimize raw in
        let name = Synth.Flow.kind_name d.kind in
        Tr.check ~what:(name ^ " ir_vs_netlist")
          (Result.is_ok
             (Backend.Equiv.ir_vs_netlist ~cycles:3000 ~drive:Loop.drive_released d.ir raw));
        closed_loop_check st ~what:(name ^ " raw netlist frame") raw;
        (match
           Backend.Equiv.differential ~cycles:3000 ~drive:Loop.drive_released
             [
               (fun () -> Backend.Nl_engine.create ~label:"raw" raw);
               (fun () -> Backend.Nl_engine.create ~label:"opt" opt);
             ]
         with
        | Ok _ -> ()
        | Error dv ->
            Printf.eprintf
              "perfbench: note: %s optimised netlist diverges from the raw one at cycle %d \
               on %s (known Opt defect; its function is not checked)\n%!"
              name dv.first.at_cycle dv.first.port);
        (digest raw, opt))
      st.designs
  in
  st.ref_raw <- List.map fst refs;
  st.ref_opt <- List.map (fun (_, opt) -> digest opt) refs;
  let osss = snd (List.hd refs) in
  st.ref_figures <-
    ((Backend.Area.analyze osss).Backend.Area.total,
     (Backend.Timing.analyze osss).Backend.Timing.fmax_mhz)

(* [Flow.run kind design] without layout, one span per pass.  Returns the
   raw netlist's digest, the optimised netlist and its OSSS figures. *)
let traced_flow d =
  let design = d.ir in
  Tr.span_ "flow.check" (fun () -> Ir.check_module design);
  let flat = Tr.span_ "flow.flatten" (fun () -> Elaborate.flatten design) in
  Tr.span_ "flow.emit" (fun () ->
      ignore (Verilog.emit design);
      ignore (Verilog.emit flat);
      match d.kind with
      | Synth.Flow.Osss -> ignore (Osss.Resolve.emit_module flat)
      | Synth.Flow.Vhdl ->
          ignore (Vhdl.emit design);
          ignore (Vhdl.emit flat));
  let hits0, _ = Backend.Lower.cache_stats () in
  let raw = Tr.span_ "flow.lower" (fun () -> Backend.Lower.lower design) in
  let hits1, _ = Backend.Lower.cache_stats () in
  Tr.add "flow.lower_cache_hits" (float_of_int (hits1 - hits0));
  let raw_text = Tr.span_ "flow.emit" (fun () -> Backend.Netlist.emit_verilog raw) in
  let opt = Tr.span_ "flow.opt" (fun () -> Backend.Opt.optimize raw) in
  Tr.add "flow.opt_cells_removed"
    (float_of_int (Backend.Netlist.cell_count raw - Backend.Netlist.cell_count opt));
  Tr.span_ "flow.emit" (fun () -> ignore (Backend.Netlist.emit_verilog opt));
  let area, timing =
    Tr.span_ "flow.analyze" (fun () ->
        ignore (Backend.Timing.by_module opt);
        ignore (Backend.Area.by_module opt);
        ignore (Synth.Analyzer.report design);
        (Backend.Area.analyze opt, Backend.Timing.analyze opt))
  in
  (Digest.string raw_text, opt, (area.Backend.Area.total, timing.Backend.Timing.fmax_mhz))

let untraced_flow d =
  let r = Synth.Flow.run d.kind d.ir in
  ( Digest.string (List.assoc (d.ir.Ir.mod_name ^ "_netlist_raw.v") r.Synth.Flow.intermediate),
    r.Synth.Flow.netlist,
    (r.Synth.Flow.area.Backend.Area.total, r.Synth.Flow.timing.Backend.Timing.fmax_mhz) )

let layout_passes nl =
  let mapped = Tr.span_ "flow.techmap" (fun () -> Backend.Techmap.map nl) in
  let placed = Tr.span_ "flow.place" (fun () -> Backend.Pnr.place mapped) in
  Tr.span_ "flow.pnr_analyze" (fun () -> Backend.Pnr.analyze placed)

(* One netlist's layout and its wall time at host speed index 1: the host
   is probed just before it, as a layout takes most of a second. *)
let layout_one nl =
  Tr.probe ();
  let t0 = Tr.now () in
  let report = layout_passes nl in
  (report, Tr.at_ref (Tr.now () -. t0))

(* One cold flow pair: the lowering cache is cleared and the heap
   collected first, so each pair starts from the same state, and the
   host is probed just before it. *)
let flow_pair st =
  Backend.Lower.clear_cache ();
  Gc.full_major ();
  Tr.probe ();
  let flow = if !Tr.enabled then traced_flow else untraced_flow in
  let results, flow_s =
    Tr.span "flow.pair" (fun () ->
        Tr.alloc "flow.words" (fun () -> List.map flow st.designs))
  in
  Tr.add "flow.pairs" 1.0;
  st.flow <- Tr.at_ref flow_s :: st.flow;
  List.iter2
    (fun (raw, opt, _) (ref_raw, ref_opt) ->
      Tr.check ~what:"raw netlist" (raw = ref_raw);
      Tr.check ~what:"optimised netlist" (digest opt = ref_opt))
    results
    (List.combine st.ref_raw st.ref_opt);
  let _, _, figures = List.hd results in
  Tr.check ~what:"OSSS area/fmax" (figures = st.ref_figures);
  List.map (fun (_, opt, _) -> opt) results

(* A flow pair costs about a tenth of a layout pair, so a repetition runs
   [pairs_per_rep] of them: three flow samples per layout sample for
   little extra time. *)
let pairs_per_rep = 3

let rep st =
  for _ = 2 to pairs_per_rep do ignore (flow_pair st) done;
  let nls = flow_pair st in
  Gc.full_major ();
  let layouts = List.map layout_one nls in
  Tr.add "flow.layouts" 1.0;
  st.layout <- List.fold_left (fun acc (_, t) -> acc +. t) 0.0 layouts :: st.layout;
  let layouts = List.map fst layouts in
  match st.ref_layout with
  | None -> st.ref_layout <- Some layouts
  | Some l -> Tr.check ~what:"layout reports" (l = layouts)

let e2e st =
  let area, fmax = st.ref_figures in
  [
    ("flow_s", Tr.median st.flow, "s");
    ("layout_s", Tr.median st.layout, "s");
    ("area_ge", area, "GE");
    ("fmax_mhz", fmax, "MHz");
  ]

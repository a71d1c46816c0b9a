(* closed_loop: the ExpoCU regulating the synthetic camera through a
   scripted illumination sequence (tunnel entries and exits), at four
   abstraction levels.  Every frame is checked against the golden
   [Exposure_algo.control_step] applied to the very pixels the level was
   fed; the behavioural model's final state against [Exposure_algo.converge].

   One round runs one frame at each netlist/RTL level and one
   behavioural episode, so the levels share the host's state of the
   moment and each yields one throughput sample per round. *)

open Expocu

let bins = 16
let width = 64
let height = 4
let lanes = 63
let period = 12 (* frames per tunnel cycle: half daylight, half tunnel *)
let behav_frames = 16
let behav_pixels = 256

type scenario = { day : float; tunnel : float; offset : int; cam_seed : int }

let scenario rng =
  {
    day = 0.35 +. Random.State.float rng 0.4;
    tunnel = 0.04 +. Random.State.float rng 0.08;
    offset = Random.State.int rng period;
    cam_seed = Random.State.bits rng;
  }

let illumination sc frame =
  if (frame + sc.offset) mod period >= period / 2 then sc.tunnel else sc.day

let gain e = float_of_int e /. float_of_int Param_calc.gain_unity

(* A scalar closed-loop level: a simulator seen through its ports. *)
type level = {
  name : string;  (** span name *)
  set : string -> int -> unit;
  set_pixel : int -> unit;
  step : unit -> unit;
  get : string -> int;
  cycles : unit -> int;
  counters : unit -> (string * float) list;
      (** cumulative engine counters, read as deltas around each frame *)
  camera : Camera.t;
  sc : scenario;
  mutable frame : int;
}

type state = {
  target : int;
  levels : level array;  (** rtl_sim.osss, rtl_sim.hand, nl_sim *)
  w : Backend.Nl_wsim.t;
  w_cams : Camera.t array;
  w_scs : scenario array;
  mutable w_frame : int;
  behav_illumination : float;
  mutable behav_ref : (int * float) option;
  (* per-round samples, in host seconds / simulated cycles *)
  mutable behav : (int * float) list;
  mutable rtl : (int * float) list;
  mutable gate : (int * float) list;
  mutable lane : (int * float) list;
}

let reset ~target set step =
  List.iter
    (fun p -> set p 0)
    [ "ext_reset"; "sda_in"; "frame_sync"; "line_valid"; "pixel" ];
  set "target_bin" target;
  for _ = 1 to 15 do step () done

(* A [drive] for the [Equiv] lockstep harnesses: random stimulus toggles
   [ext_reset] every few cycles and keeps the design near reset, so hold
   it released and let the histogram, scan and I²C logic run. *)
let drive_released _ (name, r) = if name = "ext_reset" then Bitvec.zero 1 else r

let rtl_level name design sc =
  let sim = Tr.span_ "rtl_sim.create" (fun () -> Rtl_sim.create design) in
  {
    name;
    set = Rtl_sim.set_input_int sim;
    set_pixel = Rtl_sim.set_input_int sim "pixel";
    step = (fun () -> Rtl_sim.step sim);
    get = Rtl_sim.get_int sim;
    cycles = (fun () -> Rtl_sim.cycles sim);
    counters =
      (fun () ->
        [
          ("rtl_sim.comb_runs", float_of_int (Rtl_sim.comb_runs sim));
          ("rtl_sim.comb_skips", float_of_int (Rtl_sim.comb_skips sim));
          ("rtl_sim.sync_runs", float_of_int (Rtl_sim.sync_runs sim));
        ]);
    camera = Camera.create ~width ~height ~seed:sc.cam_seed ();
    sc;
    frame = 0;
  }

let nl_level nl sc =
  let module N = Backend.Nl_sim in
  let sim = Tr.span_ "nl_sim.create" (fun () -> N.create nl) in
  let pixel = N.in_port sim "pixel" in
  {
    name = "nl_sim";
    set = N.set_input_int sim;
    set_pixel = N.drive_port_int sim pixel;
    step = (fun () -> N.step sim);
    get = N.get_output_int sim;
    cycles = (fun () -> N.cycles sim);
    counters =
      (fun () ->
        [
          ("nl_sim.evals", float_of_int (N.gate_evals sim));
          ("nl_sim.skipped", float_of_int (N.cells_skipped sim));
        ]);
    camera = Camera.create ~width ~height ~seed:sc.cam_seed ();
    sc;
    frame = 0;
  }

(* Drives one frame of [n] pixels, [pixel i] presenting the i-th, and
   waits for [frame_done]; false if it never came. *)
let drive_frame ~set ~pixel ~step ~get n =
  set "frame_sync" 1;
  for _ = 1 to 4 do step () done;
  set "line_valid" 1;
  for i = 0 to n - 1 do
    pixel i;
    step ()
  done;
  set "line_valid" 0;
  set "frame_sync" 0;
  let guard = ref 0 in
  while get "frame_done" = 0 && !guard < 4000 do
    step ();
    incr guard
  done;
  get "frame_done" = 1

let setup ~seed =
  let rng = Random.State.make [| seed; 0xC10 |] in
  let target = 5 + Random.State.int rng 5 in
  let sc = scenario rng in
  let w_scs = Array.init lanes (fun l -> if l = 0 then sc else scenario rng) in
  let behav_illumination = 0.1 +. Random.State.float rng 0.6 in
  let osss = Expocu_top.osss_top () and hand = Expocu_top.rtl_top () in
  Backend.Lower.clear_cache ();
  let nl = Tr.span_ "lower" (fun () -> Backend.Lower.lower osss) in
  let levels =
    [| rtl_level "rtl_sim.osss" osss sc; rtl_level "rtl_sim.hand" hand sc; nl_level nl sc |]
  in
  Array.iter (fun l -> reset ~target l.set l.step) levels;
  let w =
    Tr.span_ "nl_wsim.create" (fun () -> Backend.Nl_wsim.create ~lanes nl)
  in
  reset ~target (Backend.Nl_wsim.set_input_int w) (fun () ->
      Backend.Nl_wsim.step w);
  {
    target;
    levels;
    w;
    w_cams =
      Array.map (fun s -> Camera.create ~width ~height ~seed:s.cam_seed ()) w_scs;
    w_scs;
    w_frame = 0;
    behav_illumination;
    behav_ref = None;
    behav = [];
    rtl = [];
    gate = [];
    lane = [];
  }

let reference st =
  let camera =
    Camera.create ~width:behav_pixels ~height:1
      ~illumination:st.behav_illumination ()
  in
  st.behav_ref <-
    Some
      (List.nth
         (Exposure_algo.converge ~frames:behav_frames ~bins ~target_bin:st.target
            ~camera ())
         (behav_frames - 1))

(* One frame of a scalar level; returns (cycles, host seconds). *)
let scalar_frame st (l : level) =
  let e0 = l.get "exposure" in
  Camera.set_illumination l.camera (illumination l.sc l.frame);
  l.frame <- l.frame + 1;
  let pixels = Camera.frame l.camera ~exposure:(gain e0) in
  let expect =
    Exposure_algo.control_step ~bins ~target_bin:st.target ~exposure:e0 pixels
  in
  let c0 = l.cycles () and k0 = l.counters () in
  let done_, dt =
    Tr.span l.name (fun () ->
        Tr.alloc (l.name ^ ".words") (fun () ->
            drive_frame ~set:l.set
              ~pixel:(fun i -> l.set_pixel pixels.(i))
              ~step:l.step ~get:l.get (Array.length pixels)))
  in
  let cycles = l.cycles () - c0 in
  let layer = if l.name = "nl_sim" then "nl_sim" else "rtl_sim" in
  Tr.add (layer ^ ".cycles") (float_of_int cycles);
  List.iter2 (fun (k, v1) (_, v0) -> Tr.add k (v1 -. v0)) (l.counters ()) k0;
  Tr.check ~what:(l.name ^ " frame")
    (done_ && (l.get "median_bin", l.get "exposure") = expect);
  (cycles, dt)

let wsim_frame st =
  let module W = Backend.Nl_wsim in
  let w = st.w in
  let expect =
    Array.init lanes (fun l ->
        let e0 = W.get_output_int ~lane:l w "exposure" in
        let cam = st.w_cams.(l) in
        Camera.set_illumination cam (illumination st.w_scs.(l) st.w_frame);
        let pixels = Camera.frame cam ~exposure:(gain e0) in
        ( pixels,
          Exposure_algo.control_step ~bins ~target_bin:st.target ~exposure:e0
            pixels ))
  in
  st.w_frame <- st.w_frame + 1;
  let packed =
    Tr.span_ "bitvec.pack" (fun () ->
        Array.init (width * height) (fun i ->
            Bitvec.transpose
              (Array.map (fun (px, _) -> Bitvec.of_int ~width:8 px.(i)) expect)))
  in
  let c0 = W.cycles w and e0 = W.gate_evals w in
  let done_, dt =
    Tr.span "nl_wsim" (fun () ->
        Tr.alloc "nl_wsim.words" (fun () ->
            drive_frame ~set:(W.set_input_int w)
              ~pixel:(fun i -> W.set_input_packed w "pixel" packed.(i))
              ~step:(fun () -> W.step w)
              ~get:(fun p -> W.get_output_int w p)
              (Array.length packed)))
  in
  let cycles = W.cycles w - c0 in
  Tr.add "nl_wsim.cycles" (float_of_int cycles);
  Tr.add "nl_wsim.evals" (float_of_int (W.gate_evals w - e0));
  Array.iteri
    (fun l (_, exp) ->
      Tr.check ~what:(Printf.sprintf "nl_wsim lane %d frame" l)
        (done_
        && W.get_output_int ~lane:l w "frame_done" = 1
        && (W.get_output_int ~lane:l w "median_bin", W.get_output_int ~lane:l w "exposure")
           = exp))
    expect;
  (cycles * lanes, dt)

let behav_run st =
  let r, dt =
    Tr.span "sim" (fun () ->
        Tr.alloc "sim.words" (fun () ->
            Behave_model.run ~frames:behav_frames ~pixels_per_frame:behav_pixels
              ~illumination:st.behav_illumination ~target_bin:st.target ()))
  in
  Tr.add "sim.cycles" (float_of_int r.Behave_model.sim_cycles);
  Tr.add "sim.runs" (float_of_int r.Behave_model.kernel_runs);
  Tr.check ~what:"behavioural episode"
    (r.Behave_model.frames = behav_frames
    && st.behav_ref = Some (r.Behave_model.final_median, r.Behave_model.final_gain));
  (r.Behave_model.sim_cycles, dt)

let rep st =
  let b = behav_run st in
  let o = scalar_frame st st.levels.(0) in
  let h = scalar_frame st st.levels.(1) in
  let g = scalar_frame st st.levels.(2) in
  let w = wsim_frame st in
  let at_ref (c, dt) = (c, Tr.at_ref dt) in
  st.behav <- at_ref b :: st.behav;
  st.rtl <- at_ref (fst o + fst h, snd o +. snd h) :: st.rtl;
  st.gate <- at_ref g :: st.gate;
  st.lane <- at_ref w :: st.lane

let rate samples =
  Tr.median (List.map (fun (c, s) -> float_of_int c /. s) samples)

let e2e st =
  [
    ("behav_cycles_per_s", rate st.behav, "cycles/s");
    ("rtl_cycles_per_s", rate st.rtl, "cycles/s");
    ("gate_cycles_per_s", rate st.gate, "cycles/s");
    ("lane_cycles_per_s", rate st.lane, "cycles/s");
  ]

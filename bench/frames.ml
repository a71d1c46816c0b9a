(* One ExpoCU camera frame against the bench's simulators, shared by
   the experiments and the smoke/json measurements.  Every run drives
   the same sequence through [Expocu_top.drive_frame]; [seed] offsets
   the pixel stream (seed 0 is (i*53) mod 256), giving the multi-seed
   coverage runs distinct but deterministic stimulus. *)

module Nl_sim = Backend.Nl_sim

let pixel_at ~seed i = ((i * 53) + (seed * 17)) mod 256

let gate_netlist = lazy (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))

let drive ?(seed = 0) ~set ~step ~read ~pixels () =
  ignore
    (Expocu.Expocu_top.drive_frame ~set ~step ~read ~pixels
       ~pixel:(fun i -> set "pixel" (pixel_at ~seed i))
       ())

let rtl_drive ?seed sim ~pixels =
  drive ?seed ~set:(Rtl_sim.set_input_int sim)
    ~step:(fun () -> Rtl_sim.step sim)
    ~read:(Rtl_sim.get_int sim) ~pixels ()

(* A netlist simulator of any lane count.  A 1-lane one runs the
   [seed] stream, driving its pixel port as an int.  On a wider one the
   control inputs broadcast and lane l carries seed l — so lane 0 is
   the scalar frame and one run is [lanes] stimulus seeds; its pixels
   are packed into eight lanes-wide columns each. *)
let nl_drive ?seed sim ~pixels =
  let set = Nl_sim.set_input_int sim and lanes = Nl_sim.lanes sim in
  let step () = Nl_sim.step sim and read = Nl_sim.get_output_int sim in
  if lanes = 1 then drive ?seed ~set ~step ~read ~pixels ()
  else
    ignore
      (Expocu.Expocu_top.drive_frame ~set ~step ~read ~pixels
         ~pixel:(fun i ->
           Nl_sim.set_input_packed sim "pixel"
             (Array.init 8 (fun b ->
                  Bitvec.init lanes (fun l ->
                      pixel_at ~seed:l i lsr b land 1 = 1))))
         ())

let rtl_frame ~pixels () =
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  rtl_drive sim ~pixels;
  sim

(* [covers.(l)] subscribes to lane [l]'s toggles. *)
let nl_frame ?(profile = false) ?(covers = [||]) ?(lanes = 1) ~mode ~pixels ()
    =
  let sim = Nl_sim.create ~mode ~lanes (Lazy.force gate_netlist) in
  if profile then Nl_sim.enable_profile sim;
  Array.iteri
    (fun lane c -> Nl_sim.observe sim ~lane (fun _ -> Cover.Toggle.tap c))
    covers;
  nl_drive sim ~pixels;
  sim

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best wall time of [n] runs of a deterministic workload (the
   simulators produce identical state each run, so min time is the
   noise-free estimate). *)
let timed_best n f =
  let result, s0 = timed f in
  let best = ref s0 in
  for _ = 2 to n do
    let _, s = timed f in
    if s < !best then best := s
  done;
  (result, !best)

let cps cycles s = if s > 0.0 then float_of_int cycles /. s else 0.0

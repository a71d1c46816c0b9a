(* expocu_sim: closed-loop simulation of the ExpoCU against the
   synthetic camera, at a chosen abstraction level. *)

open Cmdliner
open Hdl

let gain sim =
  float_of_int (Rtl_sim.get_int sim "exposure")
  /. float_of_int Expocu.Param_calc.gain_unity

(* The closed loop: power-on reset, then [frames] camera frames, each
   exposed with the gain the ExpoCU outputs at its start.  [set] and
   [step] drive [sim] plus whatever rides along with it;
   [after_frame n data] runs once frame [n] is done. *)
let closed_loop sim camera ~target ~frames ~set ~step after_frame =
  Expocu.Expocu_top.power_on ~target ~set ~step ();
  for frame = 1 to frames do
    let data = Expocu.Camera.frame camera ~exposure:(gain sim) in
    ignore
      (Expocu.Expocu_top.drive_frame ~reset:false ~set ~step
         ~read:(Rtl_sim.get_int sim) ~pixels:(Array.length data)
         ~pixel:(fun i -> set "pixel" data.(i))
         ());
    after_frame frame data
  done

let run_rtl style frames illumination target seed vcd_path obs =
  let design =
    match style with
    | "osss" -> Expocu.Expocu_top.osss_top ()
    | "rtl" -> Expocu.Expocu_top.rtl_top ()
    | other ->
        Printf.eprintf "unknown style %s (osss|rtl)\n" other;
        exit 1
  in
  let camera =
    Expocu.Camera.create ~width:64 ~height:4 ~illumination ?seed ()
  in
  let sim = Rtl_sim.create design in
  let tracer =
    match vcd_path with
    | None -> None
    | Some _ ->
        let tr = Rtl_trace.create sim ~top:"expocu" () in
        List.iter (Rtl_trace.port tr)
          [ "pixel"; "line_valid"; "frame_sync"; "scl"; "sda_out"; "sda_oe";
            "exposure"; "median_bin"; "frame_done" ];
        Some tr
    in
  (* Coverage instrumentation: toggle bits on every register and wire,
     the declared FSMs, the functional covergroups and the protocol
     monitor — all attached before reset so the power-on sequence is
     covered too. *)
  let coverage =
    if Obs_cli.covering obs then begin
      Rtl_sim.enable_toggle_cover sim;
      let cp = Expocu.Coverpoints.attach sim in
      let mon = Expocu.Monitors.expocu_monitor sim in
      Some (cp, mon)
    end
    else None
  in
  (* Power instrumentation: shadow-simulate the synthesized gate
     netlist with exactly the stimulus driven into the RTL engine, so
     the energy figures reflect this closed loop rather than random
     vectors.  The shadow only consumes inputs — control decisions
     (exposure feedback, frame_done polling) still come from the RTL
     simulation. *)
  let shadow =
    if Obs_cli.powering obs then begin
      let kind =
        if style = "osss" then Synth.Flow.Osss else Synth.Flow.Vhdl
      in
      let result = Synth.Flow.run kind design in
      let nl = result.Synth.Flow.netlist in
      let nsim = Backend.Nl_sim.create nl in
      let act =
        Cover.Activity.create ~slots:(Backend.Netlist.net_count nl) ()
      in
      Backend.Nl_sim.observe nsim (fun _ -> Cover.Activity.tap act);
      Some (nl, nsim, act)
    end
    else None
  in
  let set name v =
    Rtl_sim.set_input_int sim name v;
    match shadow with
    | Some (_, ns, _) -> Backend.Nl_sim.set_input_int ns name v
    | None -> ()
  in
  let step () =
    Rtl_sim.step sim;
    (match shadow with
    | Some (_, ns, _) -> Backend.Nl_sim.step ns
    | None -> ());
    Option.iter Rtl_trace.sample tracer
  in
  Printf.printf "%5s %8s %10s %10s\n" "frame" "median" "gain" "mean/255";
  closed_loop sim camera ~target ~frames ~set ~step (fun frame data ->
      (match coverage with
      | Some (cp, _) -> Expocu.Coverpoints.sample_frame cp sim
      | None -> ());
      Printf.printf "%5d %8d %10.3f %10.3f\n" frame
        (Rtl_sim.get_int sim "median_bin")
        (gain sim)
        (Expocu.Camera.mean_level data /. 255.0));
  Printf.printf "\n%d clock cycles simulated (%.2f ms at 66 MHz)\n"
    (Rtl_sim.cycles sim)
    (float_of_int (Rtl_sim.cycles sim) /. 66.0e6 *. 1000.0);
  (match (tracer, vcd_path) with
  | Some tr, Some path ->
      Rtl_trace.save tr path;
      Printf.printf "waveform written to %s\n" path
  | _, _ -> ());
  let mon_ok = ref true in
  let cover_db =
    match coverage with
    | None -> None
    | Some (cp, mon) ->
        Assert_mon.finish mon;
        mon_ok := Assert_mon.ok mon;
        if not !mon_ok then
          List.iter
            (fun v -> Format.eprintf "%a@." Assert_mon.pp_violation v)
            (Assert_mon.violations mon);
        let tg =
          match Rtl_sim.toggle_cover sim with
          | Some tg -> tg
          | None -> assert false
        in
        Some
          (Cover.Db.make
             ~toggles:(Cover.Db.toggle_entries tg)
             ~fsms:(Expocu.Coverpoints.fsms cp)
             ~groups:(Expocu.Coverpoints.groups cp)
             ~monitors:(Assert_mon.db_monitors mon)
             ~run:
               (Printf.sprintf "expocu_sim:%s:seed%d" style
                  (Option.value seed ~default:0))
             ())
  in
  let power =
    match shadow with
    | None -> None
    | Some (nl, _, act) -> Some (Synth.Power_dyn.analyze nl act)
  in
  let activity = Rtl_sim.process_activity sim in
  Obs_cli.finish obs ~run:"expocu_sim" ?cover:cover_db ?power
    ~profiles:
      [
        ("hot processes", activity);
        ("hot modules", Obs.Profile.by_module activity);
      ];
  if !mon_ok then 0 else 1

(* One quiet closed-loop coverage run at [seed]: builds its own design,
   camera, simulator and collectors — everything a shard needs lives on
   the shard's domain ([Par] thread-affinity contract) — and returns
   only the finished per-seed coverage database. *)
let cover_run ~style ~frames ~illumination ~target ~seed () =
  let design =
    match style with
    | "osss" -> Expocu.Expocu_top.osss_top ()
    | _ -> Expocu.Expocu_top.rtl_top ()
  in
  let camera =
    Expocu.Camera.create ~width:64 ~height:4 ~illumination ~seed ()
  in
  let sim = Rtl_sim.create design in
  Rtl_sim.enable_toggle_cover sim;
  let cp = Expocu.Coverpoints.attach sim in
  let mon = Expocu.Monitors.expocu_monitor sim in
  closed_loop sim camera ~target ~frames ~set:(Rtl_sim.set_input_int sim)
    ~step:(fun () -> Rtl_sim.step sim)
    (fun _ _ -> Expocu.Coverpoints.sample_frame cp sim);
  Assert_mon.finish mon;
  if not (Assert_mon.ok mon) then
    failwith (Printf.sprintf "seed %d: protocol monitor violated" seed);
  let tg =
    match Rtl_sim.toggle_cover sim with
    | Some tg -> tg
    | None -> assert false
  in
  Cover.Db.make
    ~toggles:(Cover.Db.toggle_entries tg)
    ~fsms:(Expocu.Coverpoints.fsms cp)
    ~groups:(Expocu.Coverpoints.groups cp)
    ~monitors:(Assert_mon.db_monitors mon)
    ~run:(Printf.sprintf "expocu_sim:%s:seed%d" style seed)
    ()

(* Multi-seed coverage sweep: one shard per seed on the [Par] domain
   pool, per-seed databases merged in seed order — so the merged DB is
   identical for every --jobs value. *)
let run_seeds style frames illumination target base_seed nseeds obs =
  if not (Obs_cli.covering obs) then begin
    Obs.Log.error
      "--seeds is a coverage sweep; add --cover-out or --cover-summary";
    1
  end
  else begin
    let seeds = List.init nseeds (fun i -> base_seed + i) in
    let dbs =
      Par.map_list
        ~label:(fun i -> Printf.sprintf "cover-seed-%d" (base_seed + i))
        (fun seed -> cover_run ~style ~frames ~illumination ~target ~seed ())
        seeds
    in
    let merged =
      match dbs with
      | [] -> assert false
      | d :: rest -> List.fold_left Cover.Db.merge d rest
    in
    List.iter2
      (fun seed db ->
        let t = Cover.Db.totals db in
        Printf.printf "seed %5d: %d/%d toggle bits covered\n" seed
          t.Cover.Db.toggle_covered t.Cover.Db.toggle_bits)
      seeds dbs;
    let t = Cover.Db.totals merged in
    Printf.printf "merged %d seeds (jobs %d): %d/%d toggle bits covered\n"
      nseeds (Par.default_jobs ()) t.Cover.Db.toggle_covered
      t.Cover.Db.toggle_bits;
    Obs_cli.finish obs ~run:"expocu_sim" ~cover:merged;
    0
  end

let run_behavioural frames illumination target =
  let r =
    Expocu.Behave_model.run ~frames ~illumination ~target_bin:target ()
  in
  Printf.printf
    "behavioural model: %d frames, final gain %.3f, final median %d\n"
    r.Expocu.Behave_model.frames r.Expocu.Behave_model.final_gain
    r.Expocu.Behave_model.final_median;
  Printf.printf "%d clock cycles, %d kernel process activations\n"
    r.Expocu.Behave_model.sim_cycles r.Expocu.Behave_model.kernel_runs;
  0

let main level style frames illumination target seed seeds vcd obs =
  match Obs_cli.merge_requested obs with
  | Some pair -> Obs_cli.run_merge obs pair
  | None -> (
      Obs_cli.setup obs;
      match level with
      | "rtl" -> (
          match seeds with
          | Some n when n >= 1 ->
              run_seeds style frames illumination target
                (Option.value seed ~default:0)
                n obs
          | Some n ->
              Printf.eprintf "--seeds expects a positive count, got %d\n" n;
              1
          | None -> run_rtl style frames illumination target seed vcd obs)
      | "behavioural" | "behavioral" ->
          if Obs_cli.covering obs then
            Obs.Log.infof
              "coverage collection needs the RTL level; ignoring cover flags";
          let rc = run_behavioural frames illumination target in
          Obs_cli.finish obs ~run:"expocu_sim";
          rc
      | other ->
          Printf.eprintf "unknown level %s (rtl|behavioural)\n" other;
          1)

let level_arg =
  let doc = "Abstraction level: rtl or behavioural." in
  Arg.(value & opt string "rtl" & info [ "level" ] ~docv:"LEVEL" ~doc)

let style_arg =
  let doc = "Implementation style for the RTL level: osss or rtl." in
  Arg.(value & opt string "osss" & info [ "style" ] ~docv:"STYLE" ~doc)

let frames_arg =
  let doc = "Number of frames to run." in
  Arg.(value & opt int 10 & info [ "frames" ] ~docv:"N" ~doc)

let illum_arg =
  let doc = "Initial scene illumination (0..1)." in
  Arg.(value & opt float 0.2 & info [ "illumination" ] ~docv:"I" ~doc)

let target_arg =
  let doc = "Target brightness bin (0..15)." in
  Arg.(value & opt int 7 & info [ "target" ] ~docv:"BIN" ~doc)

let seed_arg =
  let doc =
    "Camera noise seed — distinct seeds give distinct stimulus, so their \
     coverage databases are worth merging."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let seeds_arg =
  let doc =
    "Coverage sweep over $(docv) consecutive camera seeds starting at \
     --seed: one quiet closed-loop run per seed, sharded across the \
     --jobs domain pool, per-seed coverage databases merged in seed \
     order.  Needs a coverage flag (--cover-out or --cover-summary)."
  in
  Arg.(value & opt (some int) None & info [ "seeds" ] ~docv:"N" ~doc)

let vcd_arg =
  let doc = "Dump a VCD waveform of the bus-level signals (RTL level only)." in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "simulate the ExpoCU exposure-control loop" in
  Cmd.v
    (Cmd.info "expocu_sim" ~doc)
    Term.(
      const main $ level_arg $ style_arg $ frames_arg $ illum_arg $ target_arg
      $ seed_arg $ seeds_arg $ vcd_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)

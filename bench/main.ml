(* Benchmark harness: the paper's experiments (see [Experiments]), plus
   the self-checking smoke workload, BENCH_sim.json, the CI perf and
   coverage gates and the history ledger.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- e1 e6   # selected
     dune exec bench/main.exe -- --help *)

open Hdl

(* Numeric field at [path] of a JSON document. *)
let num doc path =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some doc)
    path
  |> Fun.flip Option.bind Obs.Json.number_value

(* A fresh toggle collector over the frame netlist's nets. *)
let net_cover () =
  Cover.Toggle.create
    ~names:(Backend.Nl_sim.Sched.net_labels (Lazy.force Frames.gate_netlist))

(* First slot whose rises or falls differ between two collectors. *)
let edge_mismatch a b =
  List.find_opt
    (fun i ->
      Cover.Toggle.rises a i <> Cover.Toggle.rises b i
      || Cover.Toggle.falls a i <> Cover.Toggle.falls b i)
    (List.init (Cover.Toggle.bits a) Fun.id)

(* The figures the CI perf gate watches, measured on the small smoke
   workload so the gate and the emitted baseline agree on the workload:
   the (deterministic) event-driven vs full-eval evals-per-cycle ratio,
   the 64-lane full-eval per-pattern throughput over the scalar
   full-eval simulator, and the minor words per cycle of the bare
   event-driven frame at 1 and at 63 lanes. *)
let perf_gate_pixels = 32
let perf_gate_lanes = 64

(* Minor words per cycle of a bare event-driven frame: stepping only,
   no subscriber, histograms and spans off — exactly the path a
   simulation with nothing attached takes.  The 1-lane frame drives
   its pixel port as an int; the wider one packs its per-lane pixels,
   which is part of its figure.  Deterministic for a given build. *)
let bare_words_per_cycle ~lanes ~pixels =
  let hist = Obs.Hist.enabled () and span = Obs.Span.enabled () in
  Obs.Hist.disable ();
  Obs.Span.disable ();
  let sim = Backend.Nl_sim.create ~lanes (Lazy.force Frames.gate_netlist) in
  let w0 = Gc.minor_words () in
  Frames.nl_drive sim ~pixels;
  let words = Gc.minor_words () -. w0 in
  if hist then Obs.Hist.enable ();
  if span then Obs.Span.enable ();
  words /. float_of_int (Backend.Nl_sim.cycles sim)

let measure_perf_gate () =
  let pixels = perf_gate_pixels in
  let ev = Frames.nl_frame ~mode:Backend.Nl_sim.Event_driven ~pixels () in
  let words = bare_words_per_cycle ~lanes:1 ~pixels in
  let lane_words = bare_words_per_cycle ~lanes:63 ~pixels in
  let fl, fl_s =
    Frames.timed_best 3 (fun () ->
        Frames.nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels ())
  in
  let w, w_s =
    Frames.timed_best 3 (fun () ->
        Frames.nl_frame ~mode:Backend.Nl_sim.Full_eval ~lanes:perf_gate_lanes
          ~pixels ())
  in
  let per_cycle evals cycles = float_of_int evals /. float_of_int cycles in
  let ratio =
    per_cycle (Backend.Nl_sim.gate_evals ev) (Backend.Nl_sim.cycles ev)
    /. per_cycle (Backend.Nl_sim.gate_evals fl) (Backend.Nl_sim.cycles fl)
  in
  let scalar_pps = Frames.cps (Backend.Nl_sim.cycles fl) fl_s in
  let word_pps = Frames.cps (Backend.Nl_sim.cycles w * perf_gate_lanes) w_s in
  let speedup = if scalar_pps > 0.0 then word_pps /. scalar_pps else 0.0 in
  let open Obs.Json in
  Obj
    [
      ("pixels", Int pixels);
      ("lanes", Int perf_gate_lanes);
      ("evals_per_cycle_ratio", Float ratio);
      ("scalar_full_patterns_per_sec", Float scalar_pps);
      ("word_full_patterns_per_sec", Float word_pps);
      ("word64_per_pattern_speedup", Float speedup);
      ("bare_event_words_per_cycle", Float words);
      ("lane63_event_words_per_cycle", Float lane_words);
    ]

(* Hierarchy & memo-cache measurements: run the OSSS flow over the full
   ExpoCU top twice from a cleared module cache.  The warm run must hit
   the lowering cache for every module and therefore finish no slower
   than the cold run (modulo timer noise — see the gate tolerance). *)
let measure_hierarchy () =
  Backend.Lower.clear_cache ();
  let design = Expocu.Expocu_top.osss_top () in
  let lower_metric (r : Synth.Flow.result) key =
    match
      List.find_opt
        (fun (p : Synth.Flow.pass) -> p.Synth.Flow.pass_name = "lower")
        r.Synth.Flow.passes
    with
    | Some p -> Option.value ~default:0.0 (Synth.Flow.pass_metric p key)
    | None -> 0.0
  in
  let run () = Frames.timed (fun () -> Synth.Flow.run Synth.Flow.Osss design) in
  let cold, cold_s = run () in
  let warm, warm_s = run () in
  let nl = warm.Synth.Flow.netlist in
  let open Obs.Json in
  Obj
    [
      ("design", String design.Ir.mod_name);
      ("cold_flow_ms", Float (cold_s *. 1000.0));
      ("warm_flow_ms", Float (warm_s *. 1000.0));
      ("cold_cache_hits", Float (lower_metric cold "cache_hits"));
      ("cold_cache_misses", Float (lower_metric cold "cache_misses"));
      ("warm_cache_hits", Float (lower_metric warm "cache_hits"));
      ("warm_cache_misses", Float (lower_metric warm "cache_misses"));
      ("region_nets", Int (Backend.Netlist.region_table_size nl));
      ("hinted_nets", Int (Backend.Netlist.hint_table_size nl));
      ( "modules",
        List (List.map (fun r -> String r) (Backend.Netlist.region_names nl))
      );
    ]

(* Dynamic power on the synthesized ExpoCU, OSSS flow vs conventional
   flow: [Power_dyn.measure] drives both optimized netlists with the
   same deterministic seeded stimulus, so the energy totals are
   reproducible figures the CI energy gate can diff against a
   checked-in baseline. *)
let power_cycles = 256

let measure_power =
  lazy
    (let osss, vhdl = Lazy.force Experiments.expocu_results in
     let run (r : Synth.Flow.result) =
       Synth.Power_dyn.measure ~cycles:power_cycles r.Synth.Flow.netlist
     in
     let po = run osss and pv = run vhdl in
     let side (p : Synth.Power_dyn.report) =
       let open Obs.Json in
       Obj
         [
           ("total_energy_pj", Float p.Synth.Power_dyn.p_total_energy_pj);
           ("avg_mw", Float p.Synth.Power_dyn.p_avg_mw);
           ("peak_mw", Float p.Synth.Power_dyn.p_peak_mw);
           ("leakage_mw", Float p.Synth.Power_dyn.p_leakage_mw);
           ( "peak_why",
             match p.Synth.Power_dyn.p_peak_why with
             | Some s -> String s
             | None -> Null );
         ]
     in
     let module_rows ?limit (p : Synth.Power_dyn.report) =
       let rows =
         List.sort
           (fun (a : Synth.Power_dyn.module_row) b ->
             compare b.Synth.Power_dyn.pm_energy_pj
               a.Synth.Power_dyn.pm_energy_pj)
           p.Synth.Power_dyn.p_by_module
       in
       let rec take n = function
         | x :: rest when n > 0 -> x :: take (n - 1) rest
         | _ -> []
       in
       let rows = match limit with Some n -> take n rows | None -> rows in
       let open Obs.Json in
       List
         (List.map
            (fun (r : Synth.Power_dyn.module_row) ->
              Obj
                [
                  ( "path",
                    String
                      (if r.Synth.Power_dyn.pm_path = "" then "<top>"
                       else r.Synth.Power_dyn.pm_path) );
                  ("energy_pj", Float r.Synth.Power_dyn.pm_energy_pj);
                  ("avg_mw", Float r.Synth.Power_dyn.pm_avg_mw);
                  ("toggles", Int r.Synth.Power_dyn.pm_toggles);
                ])
            rows)
     in
     let detail =
       let open Obs.Json in
       Obj
         [
           ("workload", String "expocu_seeded");
           ("cycles", Int power_cycles);
           ("lib", String po.Synth.Power_dyn.p_lib);
           ("freq_mhz", Float po.Synth.Power_dyn.p_freq_mhz);
           ("osss", side po);
           ("conventional", side pv);
           ( "energy_ratio",
             Float
               (if pv.Synth.Power_dyn.p_total_energy_pj > 0.0 then
                  po.Synth.Power_dyn.p_total_energy_pj
                  /. pv.Synth.Power_dyn.p_total_energy_pj
                else 0.0) );
           ("top_modules", module_rows ~limit:5 po);
           ("osss_by_module", module_rows po);
         ]
     in
     (po, detail))

(* Coverage-instrumented smoke frame: the RTL interpreter carries the
   full model (toggle bits + FSMs + covergroups + protocol monitor),
   and the event-driven netlist contributes its per-net toggle bits
   under the "nl:" prefix, so one DB spans both abstraction levels.
   Safe to run as a [Par] shard: all simulators and collectors are
   created here, inside the shard, and only the finished immutable DB
   escapes. *)
let smoke_cover_db ?(seed = 0) ~pixels () =
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  Rtl_sim.enable_toggle_cover sim;
  let cp = Expocu.Coverpoints.attach sim in
  let mon = Expocu.Monitors.expocu_monitor sim in
  Frames.rtl_drive ~seed sim ~pixels;
  Expocu.Coverpoints.sample_frame cp sim;
  Assert_mon.finish mon;
  if not (Assert_mon.ok mon) then begin
    List.iter
      (fun v -> Format.eprintf "%a@." Assert_mon.pp_violation v)
      (Assert_mon.violations mon);
    failwith "smoke coverage run violated a protocol monitor"
  end;
  let nl =
    Backend.Nl_sim.create ~mode:Backend.Nl_sim.Event_driven
      (Lazy.force Frames.gate_netlist)
  in
  Backend.Nl_sim.enable_toggle_cover nl;
  Frames.nl_drive ~seed nl ~pixels;
  let tg = function Some tg -> tg | None -> assert false in
  Cover.Db.make
    ~toggles:
      (Cover.Db.toggle_entries ~prefix:"rtl:" (tg (Rtl_sim.toggle_cover sim))
      @ Cover.Db.toggle_entries ~prefix:"nl:"
          (tg (Backend.Nl_sim.toggle_cover nl)))
    ~fsms:(Expocu.Coverpoints.fsms cp)
    ~groups:(Expocu.Coverpoints.groups cp)
    ~monitors:(Assert_mon.db_monitors mon)
    ~run:(if seed = 0 then "bench-smoke" else Printf.sprintf "bench-smoke:seed%d" seed)
    ()

(* Multi-seed coverage closure, sharded one seed per domain: each shard
   builds its own simulators and per-seed [Cover.Db], and the per-seed
   databases merge in seed order with the monotone [Cover.Db.merge] —
   so the merged DB is byte-identical for every [jobs]. *)
let multi_seed_cover_db ?jobs ~seeds ~pixels () =
  ignore (Lazy.force Frames.gate_netlist) (* force outside the shards *);
  Par.map_list ?jobs
    ~label:(Printf.sprintf "cover-seed-%d")
    (fun seed -> smoke_cover_db ~seed ~pixels ())
    seeds
  |> function
  | [] -> failwith "multi_seed_cover_db: no seeds"
  | first :: rest -> List.fold_left Cover.Db.merge first rest

(* Coverage gate: the freshly collected DB must not regress against the
   checked-in baseline — every item the baseline covered must still be
   covered (totals may grow, never shrink item-wise). *)
let cover_gate ~baseline db =
  match Cover.Db.load baseline with
  | Error e ->
      Obs.Log.errorf "cover-gate: %s" e;
      1
  | Ok base -> (
      match Cover.Db.diff base db with
      | [] ->
          Obs.Log.infof
            "cover-gate: ok — baseline %s held (%.1f%% toggle coverage now)"
            baseline
            (100.0 *. Cover.Db.toggle_coverage db);
          0
      | lost ->
          Obs.Log.errorf "cover-gate: %d items covered in %s are now uncovered:"
            (List.length lost) baseline;
          List.iter
            (fun (kind, item) -> Obs.Log.errorf "  %-9s %s" kind item)
            lost;
          1)

(* Parallel campaign measurement for the [Par] domain pool: the same
   fault list and seed set run at jobs=1 and jobs=4, and the results
   must be bit-identical (the determinism contract) while the
   wall-clock ratio gives the speedup figure the CI parallel gate
   watches.  The fault count is tuned to the word packing: 62 faults
   per 4-way shard keep each shard's 63 lanes (golden + faults) inside
   one machine word, while the serial run packs all 249 lanes into
   four words — equal total gate work either way, so the ratio
   isolates pool overhead and the host's core count rather than a
   packing artefact. *)
let parallel_jobs = 4
let parallel_faults = 248
let parallel_cover_seeds = [ 0; 1; 2; 3 ]

let measure_parallel () =
  let jobs = parallel_jobs in
  let nl = Lazy.force Frames.gate_netlist in
  let rng = Random.State.make [| 0x9A8 |] in
  let n_nets = Backend.Netlist.net_count nl in
  let faults =
    List.init parallel_faults (fun _ ->
        {
          Backend.Equiv.fault_net = Random.State.int rng n_nets;
          stuck_at = Random.State.bool rng;
        })
  in
  let drive _ (name, r) = if name = "ext_reset" then Bitvec.zero 1 else r in
  let run_campaign jobs =
    Frames.timed (fun () ->
        Backend.Equiv.fault_campaign ~cycles:120 ~drive ~shrink:false ~jobs nl
          faults)
  in
  let serial, serial_s = run_campaign 1 in
  let par, par_s = run_campaign jobs in
  (* Determinism contract: per-fault detection results and the cycle
     figure are identical for every [jobs]; only the gate-eval total
     legitimately varies with the sharding. *)
  if
    serial.Backend.Equiv.fault_results <> par.Backend.Equiv.fault_results
    || serial.Backend.Equiv.faults_detected
       <> par.Backend.Equiv.faults_detected
    || serial.Backend.Equiv.campaign_cycles
       <> par.Backend.Equiv.campaign_cycles
  then failwith "parallel: sharded fault campaign diverged from jobs=1";
  let db_string db = Obs.Json.to_string (Cover.Db.to_json db) in
  let cov_serial, cov_serial_s =
    Frames.timed (fun () ->
        multi_seed_cover_db ~jobs:1 ~seeds:parallel_cover_seeds
          ~pixels:perf_gate_pixels ())
  in
  let cov_par, cov_par_s =
    Frames.timed (fun () ->
        multi_seed_cover_db ~jobs ~seeds:parallel_cover_seeds
          ~pixels:perf_gate_pixels ())
  in
  if db_string cov_serial <> db_string cov_par then
    failwith "parallel: sharded multi-seed coverage DB diverged from jobs=1";
  (* N-way differential sweep across stimulus seeds, one shard per
     seed: every seed must hold RTL and gate level in lockstep. *)
  let sweep_seeds = [ 42; 43; 44; 45 ] in
  let sweep =
    Backend.Equiv.differential_sweep ~cycles:100 ~shrink:false ~jobs
      ~seeds:sweep_seeds
      [
        (fun () ->
          Rtl_engine.create ~label:"rtl:expocu" (Expocu.Expocu_top.rtl_top ()));
        (fun () ->
          Backend.Nl_engine.create ~label:"gates:event"
            ~mode:Backend.Nl_sim.Event_driven nl);
      ]
  in
  List.iter
    (fun (seed, r) ->
      match r with
      | Ok _ -> ()
      | Error _ ->
          failwith
            (Printf.sprintf "parallel: differential sweep diverged at seed %d"
               seed))
    sweep;
  let speedup num den = if den > 0.0 then num /. den else 0.0 in
  let open Obs.Json in
  let shard_h = Obs.Hist.histogram "par.shard_ms" in
  Obj
    [
      ("jobs", Int jobs);
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("identical", Bool true);
      ( "fault_campaign",
        Obj
          [
            ("faults", Int parallel_faults);
            ("cycles", Int serial.Backend.Equiv.campaign_cycles);
            ("detected", Int serial.Backend.Equiv.faults_detected);
            ("serial_ms", Float (serial_s *. 1000.0));
            ("parallel_ms", Float (par_s *. 1000.0));
            ("speedup", Float (speedup serial_s par_s));
          ] );
      ( "multi_seed_cover",
        Obj
          [
            ("seeds", List (List.map (fun s -> Int s) parallel_cover_seeds));
            ("pixels", Int perf_gate_pixels);
            ("serial_ms", Float (cov_serial_s *. 1000.0));
            ("parallel_ms", Float (cov_par_s *. 1000.0));
            ("speedup", Float (speedup cov_serial_s cov_par_s));
          ] );
      ( "differential_sweep",
        Obj
          [
            ("seeds", List (List.map (fun (s, _) -> Int s) sweep));
            ("all_ok", Bool true);
          ] );
      ( "shard_ms",
        if Obs.Hist.count shard_h > 0 then Obs.Hist.to_json shard_h else Null );
    ]

(* The kernel.* and flow.* histograms and spans are fed by the
   behavioural model and the synthesis flow: run one of each, so every
   registered histogram carries samples and one Chrome trace covers
   kernel steps, engine settles and every Flow pass. *)
let run_kernel_and_flow () =
  let beh = Expocu.Behave_model.run ~frames:1 ~pixels_per_frame:32 () in
  if beh.Expocu.Behave_model.kernel_runs = 0 then
    failwith "bench: behavioural model ran no kernel processes";
  let flow = Synth.Flow.run Synth.Flow.Osss (Expocu.Sync.osss_module ()) in
  if flow.Synth.Flow.passes = [] then failwith "bench: flow recorded no passes"

(* Emit BENCH_sim.json: cycles/sec and evals/cycle for the ExpoCU frame
   workload — netlist simulator in both modes, plus the RTL
   interpreter's process-run rate — with the per-settle histograms and
   the hot-nets / hot-cells / hot-processes activity profiles.  See
   docs/PERFORMANCE.md and docs/OBSERVABILITY.md. *)
let bench_json ~profile () =
  (* Histograms are part of the emitted document; recording costs one
     branch per settle and is paid identically by every contestant. *)
  Obs.Hist.enable ();
  Obs.Hist.reset_all ();
  run_kernel_and_flow ();
  let pixels = 256 in
  let ev_cov = net_cover () in
  let ev, ev_s =
    Frames.timed (fun () ->
        Frames.nl_frame ~profile:true ~covers:[| ev_cov |]
          ~mode:Backend.Nl_sim.Event_driven ~pixels ())
  in
  let fl, fl_s =
    Frames.timed (fun () ->
        Frames.nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels ())
  in
  let rtl, rtl_s = Frames.timed (fun () -> Frames.rtl_frame ~pixels ()) in
  let per_cycle count sim =
    float_of_int count /. float_of_int (Backend.Nl_sim.cycles sim)
  in
  let rtl_cycles = Rtl_sim.cycles rtl in
  let cps = Frames.cps in
  (* Best of 5: single-shot sweep figures moved ~2x between runs. *)
  let sweep_entry lanes =
    let open Obs.Json in
    let wmode mode =
      let w, s =
        Frames.timed_best 5 (fun () -> Frames.nl_frame ~mode ~lanes ~pixels ())
      in
      let cycles = Backend.Nl_sim.cycles w in
      Obj
        [
          ("cycles", Int cycles);
          ("gate_evals", Int (Backend.Nl_sim.gate_evals w));
          ("cycles_per_sec", Float (cps cycles s));
          ("patterns_per_sec", Float (cps (cycles * lanes) s));
        ]
    in
    let event_driven = wmode Backend.Nl_sim.Event_driven in
    let full_eval = wmode Backend.Nl_sim.Full_eval in
    Obj
      [
        ("lanes", Int lanes);
        ("event_driven", event_driven);
        ("full_eval", full_eval);
      ]
  in
  let perf_gate_detail = measure_perf_gate () in
  let hierarchy_detail = measure_hierarchy () in
  let _, power_detail = Lazy.force measure_power in
  let parallel_detail = measure_parallel () in
  let open Obs.Json in
  let mode_obj sim seconds extras =
    Obj
      ([
         ("cycles", Int (Backend.Nl_sim.cycles sim));
         ("gate_evals", Int (Backend.Nl_sim.gate_evals sim));
         ( "evals_per_cycle",
           Float (per_cycle (Backend.Nl_sim.gate_evals sim) sim) );
       ]
      @ extras
      @ [ ("cycles_per_sec", Float (cps (Backend.Nl_sim.cycles sim) seconds)) ])
  in
  let rank raw = Obs.Profile.to_json (Obs.Profile.top raw) in
  let rtl_activity = Rtl_sim.process_activity rtl in
  (* OCaml evaluates the elements of a list literal right to left, so
     every section that runs or reads something is bound here, in
     document order: the histograms and profiles must be read after
     the word-parallel sweep has run. *)
  let netlist =
    Obj
      [
        ("comb_cells", Int (Backend.Nl_sim.comb_cells ev));
        ("dff_cells", Int (Backend.Nl_sim.dff_cells ev));
        ( "event_driven",
          mode_obj ev ev_s
            [ ("cells_skipped", Int (Backend.Nl_sim.cells_skipped ev)) ] );
        ("full_eval", mode_obj fl fl_s []);
        ( "evals_per_cycle_ratio",
          Float
            (per_cycle (Backend.Nl_sim.gate_evals ev) ev
            /. per_cycle (Backend.Nl_sim.gate_evals fl) fl) );
      ]
  in
  let sweep = List.map sweep_entry [ 1; 8; 64 ] in
  let rtl_section =
    Obj
      [
        ("cycles", Int rtl_cycles);
        ("process_runs", Int (Rtl_sim.comb_runs rtl));
        ("process_skips", Int (Rtl_sim.comb_skips rtl));
        ( "runs_per_cycle",
          Float
            (float_of_int (Rtl_sim.comb_runs rtl) /. float_of_int rtl_cycles) );
        ("cycles_per_sec", Float (cps rtl_cycles rtl_s));
      ]
  in
  let histograms = Obs.Hist.all_to_json () in
  let profiles =
    Obj
      [
        ("hot_nets", rank (Cover.Toggle.activity ev_cov));
        ("hot_cells", rank (Backend.Nl_sim.cell_activity ev));
        ("hot_processes", rank rtl_activity);
        ("hot_modules", rank (Obs.Profile.by_module rtl_activity));
      ]
  in
  let doc =
    Obj
      [
        ("workload", String "expocu_frame");
        ("pixels", Int pixels);
        ("netlist", netlist);
        ( "word_parallel",
          Obj
            [
              ("lane_bits", Int Backend.Nl_sim.lane_bits); ("sweep", List sweep);
            ] );
        ("perf_gate", perf_gate_detail);
        ("hierarchy", hierarchy_detail);
        ("power", power_detail);
        ("parallel", parallel_detail);
        ("rtl", rtl_section);
        ("histograms", histograms);
        ("profiles", profiles);
      ]
  in
  Obs.Json.save doc "BENCH_sim.json";
  print_endline (to_string ~pretty:true doc);
  List.iter
    (fun h ->
      if Obs.Hist.count h > 0 then
        Obs.Log.infof "%-30s p50 %10.1f  p95 %10.1f  max %10.0f"
          (Obs.Hist.name h)
          (Obs.Hist.percentile h 50.0)
          (Obs.Hist.percentile h 95.0)
          (Obs.Hist.max_value h))
    (Obs.Hist.all ());
  if profile then begin
    Obs.Log.info "hot nets (event-driven netlist):";
    prerr_string
      (Obs.Profile.table ~title:"hot nets" ~unit_name:"toggles"
         (Obs.Profile.top (Cover.Toggle.activity ev_cov)))
  end;
  Obs.Log.info "wrote BENCH_sim.json"

(* Small self-checking run for `dune build @bench-smoke`: the
   ENGINE-based differential harness must keep all three simulation
   levels in lockstep, catch and shrink a seeded fault, and the
   event-driven core must agree with full evaluation while doing
   strictly less work. *)
let bench_smoke ~profile () =
  let pixels = 32 in
  let nl = Lazy.force Frames.gate_netlist in
  let factories =
    [
      (fun () ->
        Rtl_engine.create ~label:"rtl:expocu" (Expocu.Expocu_top.rtl_top ()));
      (fun () ->
        Backend.Nl_engine.create ~label:"gates:event"
          ~mode:Backend.Nl_sim.Event_driven nl);
      (fun () ->
        Backend.Nl_engine.create ~label:"gates:full"
          ~mode:Backend.Nl_sim.Full_eval nl);
      (* Word-parallel engine under broadcast stimulus: Engine.get reads
         lane 0, so the lockstep compares the golden lane against every
         scalar level each cycle. *)
      (fun () -> Backend.Nl_engine.create_word ~label:"gates:word" ~lanes:8 nl);
    ]
  in
  (match Backend.Equiv.differential ~cycles:200 factories with
  | Ok _ -> ()
  | Error d ->
      failwith
        (Format.asprintf "bench-smoke: lockstep divergence: %a"
           Backend.Equiv.pp_divergence d));
  (match
     Backend.Equiv.differential ~cycles:200
       (factories
       @ [
           (fun () ->
             Engine.inject_fault ~port:"frame_done"
               (Backend.Nl_engine.create ~label:"gates:seeded-fault" nl));
         ])
   with
  | Ok _ -> failwith "bench-smoke: seeded fault not detected"
  | Error d ->
      if d.Backend.Equiv.first.Backend.Equiv.port <> "frame_done" then
        failwith "bench-smoke: seeded fault localized to wrong port";
      if Array.length d.Backend.Equiv.window <> 1 then
        failwith "bench-smoke: seeded fault window did not shrink");
  let ev_cov = net_cover () and fl_cov = net_cover () in
  let ev =
    Frames.nl_frame ~profile ~covers:[| ev_cov |]
      ~mode:Backend.Nl_sim.Event_driven ~pixels ()
  in
  let fl =
    Frames.nl_frame ~covers:[| fl_cov |] ~mode:Backend.Nl_sim.Full_eval
      ~pixels ()
  in
  assert (Backend.Nl_sim.cycles ev = Backend.Nl_sim.cycles fl);
  Option.iter
    (fun n ->
      failwith (Printf.sprintf "bench-smoke: toggle mismatch on net %d" n))
    (edge_mismatch ev_cov fl_cov);
  if Backend.Nl_sim.gate_evals ev >= Backend.Nl_sim.gate_evals fl then
    failwith "bench-smoke: event-driven mode did not reduce gate evals";
  (* Lane-parallel fault campaign: a stuck-at-1 on the frame_done output
     net must be observed against the golden lane and hand the scalar
     harness a shrunk, replaying reproducer. *)
  let frame_done_net = (List.assoc "frame_done" (Backend.Netlist.outputs nl)).(0) in
  let campaign =
    Backend.Equiv.fault_campaign ~cycles:120
      nl
      [ { Backend.Equiv.fault_net = frame_done_net; stuck_at = true } ]
  in
  if campaign.Backend.Equiv.faults_detected <> 1 then
    failwith "bench-smoke: fault campaign missed stuck-at-1 on frame_done";
  (match campaign.Backend.Equiv.fault_results with
  | [ r ] -> (
      match r.Backend.Equiv.shrunk with
      | Some d
        when Array.length d.Backend.Equiv.window >= 1
             && d.Backend.Equiv.replay <> None ->
          ()
      | Some _ | None ->
          failwith "bench-smoke: campaign fault has no replaying reproducer")
  | _ -> assert false);
  (* Multi-seed coverage in one run: a 4-lane frame with per-lane pixel
     streams yields one toggle collector per seed; the union must cover
     at least as much as any single seed. *)
  let cover_lanes = 4 in
  let covers = Array.init cover_lanes (fun _ -> net_cover ()) in
  ignore
    (Frames.nl_frame ~covers ~mode:Backend.Nl_sim.Event_driven
       ~lanes:cover_lanes ~pixels ());
  let lane_cov l = covers.(l) in
  let per_lane_covered =
    List.init cover_lanes (fun l -> Cover.Toggle.covered (lane_cov l))
  in
  let cover_bits = Cover.Toggle.bits (lane_cov 0) in
  let union_covered =
    let n = ref 0 in
    for i = 0 to cover_bits - 1 do
      let any f = List.exists (fun l -> f (lane_cov l) i > 0) (List.init cover_lanes Fun.id) in
      if any Cover.Toggle.rises && any Cover.Toggle.falls then incr n
    done;
    !n
  in
  if List.exists (fun c -> union_covered < c) per_lane_covered then
    failwith "bench-smoke: multi-seed union covers less than a single seed";
  let perf_gate_detail = measure_perf_gate () in
  let hierarchy_detail = measure_hierarchy () in
  let power_osss, power_detail = Lazy.force measure_power in
  let parallel_detail = measure_parallel () in
  let figure doc path = Option.value ~default:nan (num doc path) in
  let rtl = Frames.rtl_frame ~pixels () in
  if Rtl_sim.comb_skips rtl = 0 then
    failwith "bench-smoke: rtl scheduler never skipped a process";
  Obs.Log.infof
    "bench-smoke ok: 4-way lockstep + fault shrink + fault campaign, %d \
     cycles, gate evals %d (event) vs %d (full), word64 per-pattern \
     speedup %.1fx (ratio %.3f), rtl process runs %d skips %d"
    (Backend.Nl_sim.cycles ev)
    (Backend.Nl_sim.gate_evals ev)
    (Backend.Nl_sim.gate_evals fl)
    (figure perf_gate_detail [ "word64_per_pattern_speedup" ])
    (figure perf_gate_detail [ "evals_per_cycle_ratio" ])
    (Rtl_sim.comb_runs rtl) (Rtl_sim.comb_skips rtl);
  Obs.Log.infof
    "bench-smoke parallel: %d-fault campaign + %d-seed coverage + sweep \
     identical at jobs 1 and %d (campaign %.0f ms serial, %.0f ms at %d \
     jobs on %d recommended domains)"
    parallel_faults
    (List.length parallel_cover_seeds)
    parallel_jobs
    (figure parallel_detail [ "fault_campaign"; "serial_ms" ])
    (figure parallel_detail [ "fault_campaign"; "parallel_ms" ])
    parallel_jobs
    (Domain.recommended_domain_count ());
  let rtl_activity = Rtl_sim.process_activity rtl in
  let extra =
    let open Obs.Json in
    [
      ( "smoke",
        Obj
          [
            ("workload", String "expocu_frame");
            ("pixels", Int pixels);
            ("cycles", Int (Backend.Nl_sim.cycles ev));
            ("gate_evals_event", Int (Backend.Nl_sim.gate_evals ev));
            ("gate_evals_full", Int (Backend.Nl_sim.gate_evals fl));
            ("rtl_process_runs", Int (Rtl_sim.comb_runs rtl));
            ("rtl_process_skips", Int (Rtl_sim.comb_skips rtl));
            ( "campaign_detected_at",
              match campaign.Backend.Equiv.fault_results with
              | [ { Backend.Equiv.detected_at = Some c; _ } ] -> Int c
              | _ -> Null );
            ( "campaign_site",
              match campaign.Backend.Equiv.fault_results with
              | [ { Backend.Equiv.site; _ } ] -> String site
              | _ -> Null );
          ] );
      ("perf_gate", perf_gate_detail);
      ("hierarchy", hierarchy_detail);
      (* The schema-shaped power section rides in the report's own
         ?power slot; this extra carries the OSSS-vs-conventional
         comparison the energy gate reads. *)
      ("power_compare", power_detail);
      ("parallel", parallel_detail);
      ( "multi_seed_cover",
        Obj
          [
            ("lanes", Int cover_lanes);
            ("bits", Int cover_bits);
            ("per_lane_covered", List (List.map (fun c -> Int c) per_lane_covered));
            ("union_covered", Int union_covered);
          ] );
    ]
  in
  let profiles =
    [
      ("hot_nets", Cover.Toggle.activity ev_cov);
      ("hot_cells", Backend.Nl_sim.cell_activity ev);
      ("hot_processes", rtl_activity);
      ("hot_modules", Obs.Profile.by_module rtl_activity);
    ]
  in
  (extra, profiles, power_osss)

(* ------------------------------------------------------------------ *)
(* CI perf gate                                                        *)

(* What a rule compares its figure against: a bound (with how it was
   derived), a reason to skip the rule, or a reason it cannot be
   checked, which fails it. *)
type limit = Bound of float * string | Skip of string | Missing of string

(* [slack] times the baseline's figure at [path].  A baseline predating
   the figure skips the rule when [optional], fails it otherwise. *)
let of_baseline ?(optional = false) path slack ~fresh:_ ~base =
  match num base path with
  | Some b -> Bound (b *. slack, Printf.sprintf "%g x baseline %g" slack b)
  | None ->
      let why = "baseline has no " ^ String.concat "." path in
      if optional then Skip why else Missing why

(* [slack] times another figure of the same fresh run. *)
let of_fresh path slack ~fresh ~base:_ =
  let name = String.concat "." path in
  match num fresh path with
  | Some v -> Bound (v *. slack, Printf.sprintf "%g x %s %g" slack name v)
  | None -> Missing ("fresh run has no " ^ name)

let absolute v ~fresh:_ ~base:_ = Bound (v, "absolute")

(* Wall-clock scaling needs real cores: hosts with fewer than 4
   recommended domains skip the parallel rule, as do baselines
   predating the parallel section. *)
let parallel_limit ~fresh ~base =
  match
    ( num base [ "parallel"; "jobs" ],
      num fresh [ "parallel"; "recommended_domains" ] )
  with
  | None, _ -> Skip "baseline has no parallel section"
  | Some _, Some d when d < 4.0 ->
      Skip (Printf.sprintf "host recommends %g domains (< 4)" d)
  | Some _, _ ->
      of_fresh [ "parallel"; "fault_campaign"; "serial_ms" ] 0.6 ~fresh ~base

(* The perf gate as a table: each rule bounds one figure of the fresh
   smoke sections — at most ([`Le]), at least ([`Ge]) or above
   ([`Gt]) its limit.  Deterministic counts get tight bounds,
   wall-clock figures compare ratios measured in one process. *)
let perf_rules =
  let pg key = [ "perf_gate"; key ] in
  [
    (* event-driven vs full-eval evals per cycle *)
    ( pg "evals_per_cycle_ratio",
      `Le,
      of_baseline (pg "evals_per_cycle_ratio") 1.2 );
    (* 64-lane full-eval per-pattern throughput over scalar full eval *)
    ( pg "word64_per_pattern_speedup",
      `Ge,
      of_baseline (pg "word64_per_pattern_speedup") 0.8 );
    (pg "word64_per_pattern_speedup", `Ge, absolute 10.0);
    (* a bare step, at 1 and at 63 lanes, must not start allocating *)
    ( pg "bare_event_words_per_cycle",
      `Le,
      of_baseline ~optional:true (pg "bare_event_words_per_cycle") 1.1 );
    ( pg "lane63_event_words_per_cycle",
      `Le,
      of_baseline ~optional:true (pg "lane63_event_words_per_cycle") 1.1 );
    (* the warm flow run re-lowers nothing *)
    ([ "hierarchy"; "warm_cache_hits" ], `Gt, absolute 0.0);
    ( [ "hierarchy"; "warm_flow_ms" ],
      `Le,
      of_fresh [ "hierarchy"; "cold_flow_ms" ] 1.2 );
    (* seeded-stimulus OSSS dynamic energy: an optimization trading
       area for a hot, always-toggling structure trips this *)
    ( [ "power_compare"; "osss"; "total_energy_pj" ],
      `Le,
      of_baseline ~optional:true [ "power"; "osss"; "total_energy_pj" ] 1.2 );
    (* the 4-job fault campaign against the serial one *)
    ([ "parallel"; "fault_campaign"; "parallel_ms" ], `Le, parallel_limit);
  ]

(* Every rule over [fresh] (the smoke's report sections) against the
   checked-in [baseline] document; 1 if any fails. *)
let perf_gate_check ~baseline fresh =
  match Obs.Json.load baseline with
  | Error e ->
      Obs.Log.errorf "perf-gate: cannot read baseline: %s" e;
      1
  | Ok base ->
      let failed (path, rel, limit) =
        let name = String.concat "." path in
        let v = Option.value ~default:nan (num fresh path) in
        match limit ~fresh ~base with
        | Skip why ->
            Obs.Log.infof "perf-gate: %s skipped: %s" name why;
            false
        | Missing why ->
            Obs.Log.errorf "perf-gate: %s: %s" name why;
            true
        | Bound (b, how) ->
            let ok, op =
              match rel with
              | `Le -> (v <= b, "<=")
              | `Ge -> (v >= b, ">=")
              | `Gt -> (v > b, ">")
            in
            (if ok then Obs.Log.infof else Obs.Log.errorf)
              "perf-gate: %s %s %g, limit %s %g (%s)"
              (if ok then "ok" else "FAILED")
              name v op b how;
            not ok
      in
      if List.exists Fun.id (List.map failed perf_rules) then 1 else 0

(* ------------------------------------------------------------------ *)
(* History ledger                                                      *)

(* One-line performance ledger: append the headline figures of a
   checked-in BENCH_sim.json to bench/history.jsonl, so trend questions
   ("when did the event-driven ratio move?") are a grep, not an
   archaeology dig through git history of the full report.  Each line
   is stamped osss.bench-history/v1; --history-check validates a whole
   ledger against that schema. *)
let history_schema = "osss.bench-history/v1"

let non_blank_lines text =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)

let append_history ~date ~baseline ~history =
  match Obs.Json.load baseline with
  | Error e ->
      Obs.Log.errorf "append-history: %s" e;
      1
  | Ok doc -> (
      let path = num doc in
      let workload =
        match
          Option.bind (Obs.Json.member "workload" doc) Obs.Json.string_value
        with
        | Some w -> w
        | None -> "expocu_frame"
      in
      match
        ( path [ "netlist"; "event_driven"; "evals_per_cycle" ],
          path [ "perf_gate"; "word64_per_pattern_speedup" ],
          path [ "hierarchy"; "cold_flow_ms" ] )
      with
      | Some evals, Some speedup, Some flow_ms ->
          (* Energy totals entered the report later; older baselines
             simply omit the power keys. *)
          let power_fields =
            match
              ( path [ "power"; "osss"; "total_energy_pj" ],
                path [ "power"; "conventional"; "total_energy_pj" ] )
            with
            | Some osss_pj, Some conv_pj ->
                [
                  ("osss_energy_pj", Obs.Json.Float osss_pj);
                  ("conventional_energy_pj", Obs.Json.Float conv_pj);
                ]
            | _ -> []
          in
          let line =
            Obs.Json.to_string
              (Obs.Json.Obj
                 ([
                    ("schema", Obs.Json.String history_schema);
                    ("date", Obs.Json.String date);
                    ("workload", Obs.Json.String workload);
                    ("evals_per_cycle", Obs.Json.Float evals);
                    ("word64_speedup", Obs.Json.Float speedup);
                    ("cold_flow_ms", Obs.Json.Float flow_ms);
                  ]
                 @ power_fields))
          in
          (* Refuse a duplicate ledger entry: re-running the CI step on
             the same day must not stack identical lines.  Only the
             LAST entry for this workload is consulted — an older
             same-date line (a backfill) is someone's explicit edit. *)
          let last_date_for_workload =
            match Obs.Json.read_file history with
            | Error _ -> None
            | Ok text ->
                List.fold_left
                  (fun last l ->
                    match Obs.Json.of_string l with
                    | exception Obs.Json.Parse_error _ -> last
                    | j ->
                        let str k =
                          Option.bind (Obs.Json.member k j)
                            Obs.Json.string_value
                        in
                        if str "workload" = Some workload then str "date"
                        else last)
                  None (non_blank_lines text)
          in
          if last_date_for_workload = Some date then begin
            Obs.Log.errorf
              "append-history: %s already ends with a %s entry for %s — \
               refusing the duplicate"
              history date workload;
            1
          end
          else begin
            let oc =
              open_out_gen [ Open_append; Open_creat ] 0o644 history
            in
            output_string oc (line ^ "\n");
            close_out oc;
            Obs.Log.infof "append-history: %s >> %s" line history;
            0
          end
      | _ ->
          Obs.Log.errorf
            "append-history: %s is missing the expected sections" baseline;
          1)

(* Validate every line of a bench-history ledger: parseable JSON,
   the v1 stamp, a date, and numeric headline figures.  CI runs this
   against the checked-in bench/history.jsonl so the ledger stays
   greppable. *)
let history_check ~history =
  match Obs.Json.read_file history with
  | Error e ->
      Obs.Log.errorf "history-check: %s" e;
      1
  | Ok text -> (
      let check_line i line =
        if String.trim line = "" then None
        else
          match Obs.Json.of_string line with
          | exception Obs.Json.Parse_error msg ->
              Some (Printf.sprintf "line %d: not valid JSON: %s" i msg)
          | json -> (
              let str k =
                Option.bind (Obs.Json.member k json) Obs.Json.string_value
              in
              let num k =
                Option.bind (Obs.Json.member k json) Obs.Json.number_value
              in
              match str "schema" with
              | Some s when s <> history_schema ->
                  Some
                    (Printf.sprintf "line %d: schema %S, expected %S" i s
                       history_schema)
              | None -> Some (Printf.sprintf "line %d: missing schema" i)
              | Some _ ->
                  if str "date" = None then
                    Some (Printf.sprintf "line %d: missing date" i)
                  else if str "workload" = None then
                    Some (Printf.sprintf "line %d: missing workload" i)
                  else
                    List.find_map
                      (fun k ->
                        if num k = None then
                          Some
                            (Printf.sprintf "line %d: %S is not a number" i k)
                        else None)
                      [ "evals_per_cycle"; "word64_speedup"; "cold_flow_ms" ])
      in
      let errors =
        List.mapi (fun i l -> check_line (i + 1) l)
          (String.split_on_char '\n' text)
      in
      match List.filter_map Fun.id errors with
      | [] ->
          Printf.printf "%s: ok (%d entries, schema %s)\n" history
            (List.length (non_blank_lines text))
            history_schema;
          0
      | es ->
          List.iter (fun e -> Obs.Log.errorf "history-check: %s" e) es;
          1)

(* The in-repo schema check CI runs against a report produced moments
   earlier.  A coverage section must not merely look like a coverage
   DB — it has to parse back as one. *)
let check_report file =
  match
    Result.bind (Obs.Json.load file) (fun doc ->
        Result.map (fun () -> doc) (Obs.Report.validate doc))
  with
  | Error e ->
      Obs.Log.errorf "%s: invalid run report: %s" file e;
      1
  | Ok doc -> (
      match Obs.Json.member "coverage" doc with
      | None ->
          Printf.printf "%s: valid (no coverage section)\n" file;
          0
      | Some c -> (
          match Cover.Db.of_json c with
          | Ok db ->
              let t = Cover.Db.totals db in
              Printf.printf "%s: valid, coverage %d/%d toggle bits\n" file
                t.Cover.Db.toggle_covered t.Cover.Db.toggle_bits;
              0
          | Error e ->
              Obs.Log.errorf "%s: coverage section: %s" file e;
              1))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

(* The smoke workload with its gates; in --json mode stdout carries
   only the run report (CI pipes it into --check-report), so the
   human-readable tables go to stderr. *)
let run_smoke ~json ~cover_gate:gate ~perf_gate obs =
  let extra, profiles, power =
    bench_smoke ~profile:(Obs_cli.profiling obs || json) ()
  in
  let perf_rc =
    match perf_gate with
    | Some baseline -> perf_gate_check ~baseline (Obs.Json.Obj extra)
    | None -> 0
  in
  let cover =
    if Obs_cli.covering obs || gate <> None then
      Some (smoke_cover_db ~pixels:32 ())
    else None
  in
  let cover_rc =
    match (gate, cover) with
    | Some baseline, Some db -> cover_gate ~baseline db
    | _ -> 0
  in
  if Obs.Span.enabled () then run_kernel_and_flow ();
  if json then
    print_endline
      (Obs.Json.to_string ~pretty:true
         (Obs.Report.make
            ?coverage:(Option.map Cover.Db.to_json cover)
            ~power:(Synth.Power_dyn.to_json power)
            ~profiles:
              (List.map (fun (t, raw) -> (t, Obs.Profile.top raw)) profiles)
            ~extra ~run:"bench-smoke" ()));
  Obs_cli.finish obs
    ~out:(if json then stderr else stdout)
    ~profiles ?cover ~power ~run:"bench-smoke";
  max perf_rc cover_rc

let run_experiments ids obs =
  let selected =
    match ids with
    | [] -> Experiments.experiments
    | ids ->
        List.filter_map
          (fun id ->
            match
              List.assoc_opt (String.lowercase_ascii id)
                Experiments.experiments
            with
            | Some f -> Some (id, f)
            | None ->
                Obs.Log.errorf "unknown experiment %s" id;
                None)
          ids
  in
  Printf.printf
    "OSSS evaluation reproduction — experiments from Bannow & Haug, DATE \
     2004\n";
  List.iter (fun (_, f) -> f ()) selected;
  Obs_cli.finish obs ~run:"bench";
  0

let main smoke json check_report_file gate perf_gate append_date
    history_file ids obs =
  match
    (append_date, history_file, Obs_cli.merge_requested obs, check_report_file)
  with
  | Some date, _, _, _ ->
      (* the baseline defaults to BENCH_sim.json but follows --perf-gate *)
      append_history ~date
        ~baseline:(Option.value perf_gate ~default:"BENCH_sim.json")
        ~history:"bench/history.jsonl"
  | None, Some file, _, _ -> history_check ~history:file
  | None, None, Some pair, _ -> Obs_cli.run_merge obs pair
  | None, None, None, Some file -> check_report file
  | None, None, None, None ->
      let refuse msg =
        Obs.Log.error msg;
        2
      in
      if (Obs_cli.covering obs || gate <> None) && not smoke then
        refuse
          "coverage collection is attached to the smoke workload; add --smoke"
      else if perf_gate <> None && not smoke then
        refuse "--perf-gate is attached to the smoke workload; add --smoke"
      else if Obs_cli.powering obs && not (smoke || json) then
        refuse
          "power collection is attached to the smoke/json workloads; add \
           --smoke or --json"
      else begin
        Obs_cli.setup obs;
        if smoke then run_smoke ~json ~cover_gate:gate ~perf_gate obs
        else if json then begin
          bench_json ~profile:(Obs_cli.profiling obs) ();
          let power =
            if Obs_cli.powering obs then Some (fst (Lazy.force measure_power))
            else None
          in
          Obs_cli.finish obs ~out:stderr ?power ~run:"bench";
          0
        end
        else run_experiments ids obs
      end

open Cmdliner

let smoke_arg =
  let doc =
    "Run the small self-checking workload instead of the experiments: \
     RTL, gate-level and word-parallel engines in lockstep, a seeded \
     fault caught and shrunk, event-driven against full evaluation, \
     and the perf, hierarchy, power and parallel measurements."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let json_arg =
  let doc =
    "Print a JSON document instead of the experiment tables: with \
     --smoke the run report (schema v3), alone the full frame benchmark, \
     also written to BENCH_sim.json."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let file_arg name ~docv doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let check_report_arg =
  file_arg "check-report" ~docv:"FILE"
    "Validate a run report written by --json (schema, and a coverage \
     section that parses back) and exit."

let cover_gate_arg =
  file_arg "cover-gate" ~docv:"BASELINE"
    "With --smoke: fail unless every item the coverage database \
     $(docv) covers is still covered."

let perf_gate_arg =
  file_arg "perf-gate" ~docv:"BASELINE"
    "With --smoke: fail when a perf figure leaves its bound against the \
     BENCH_sim.json document $(docv).  Also the baseline of \
     --append-history."

let append_history_arg =
  file_arg "append-history" ~docv:"DATE"
    "Append the headline figures of the baseline (BENCH_sim.json, or \
     --perf-gate) to bench/history.jsonl, stamped $(docv), and exit."

let history_check_arg =
  file_arg "history-check" ~docv:"FILE"
    "Validate every line of a bench-history ledger and exit."

let ids_arg =
  let doc =
    "Experiments to run, in order (e1-e9, f12, formal, power, layout, \
     xcheck, ablation, faults); all of them when none is given."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "reproduce the paper's experiments and gate the simulators" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const main $ smoke_arg $ json_arg $ check_report_arg $ cover_gate_arg
      $ perf_gate_arg $ append_history_arg $ history_check_arg $ ids_arg
      $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)

(* verify: a stuck-at fault campaign with its default shrinking, then
   multi-seed coverage closure, both through the [Par] pool at an
   explicit [jobs].  Every timed campaign and every merged coverage
   database must equal a jobs=1 reference made once per process outside
   timing, and the protocol monitors must pass.

   Coverage runs the RTL interpreter with coverpoints, monitors and
   toggle cover attached, then replays the same frames on the gate
   netlist with toggle cover — so this workload, unlike closed_loop,
   simulates with subscribers attached. *)

open Expocu

let jobs = 2
let faults_n = 62
let campaign_cycles = 120
let cover_seeds_n = 6
let cover_frames = 2

type state = {
  nl : Backend.Netlist.t;
  faults : Backend.Equiv.lane_fault list;
  stim_seed : int;
  target : int;
  cover_seeds : int list;
  mutable ref_campaign : Backend.Equiv.campaign option;
  mutable ref_db : string;
  mutable cover : float list;
}

(* The fault list comes from the seed alone: nets and stuck-at values
   drawn uniformly, whatever the program's grading makes of them.  The
   timed campaigns are checked against the jobs=1 reference, fault by
   fault, detected or not. *)
let sample_faults rng nl =
  let nets = Backend.Netlist.net_count nl in
  List.init faults_n (fun _ ->
      {
        Backend.Equiv.fault_net = Random.State.int rng nets;
        stuck_at = Random.State.bool rng;
      })

let setup ~seed =
  let rng = Random.State.make [| seed; 0x7E5 |] in
  let design = Expocu_top.osss_top () in
  Backend.Lower.clear_cache ();
  let nl = Tr.span_ "lower" (fun () -> Backend.Lower.lower design) in
  {
    nl;
    faults = sample_faults rng nl;
    stim_seed = Random.State.bits rng;
    target = 5 + Random.State.int rng 5;
    cover_seeds = List.init cover_seeds_n (fun _ -> Random.State.bits rng);
    ref_campaign = None;
    ref_db = "";
    cover = [];
  }

(* How a coverage run reports time and counts: [quiet] inside pool
   shards (the recorder lives on the calling domain), [traced] for a
   jobs=1 run on the calling domain. *)
type obs = { time : string -> (unit -> unit) -> unit; add : string -> float -> unit }

let quiet = { time = (fun _ f -> f ()); add = (fun _ _ -> ()) }

let traced =
  { time = (fun name f -> Tr.span_ name (fun () -> Tr.alloc (name ^ ".words") f)); add = Tr.add }

type seed_run = {
  db : Cover.Db.t option;
  monitors_ok : bool;
  frames_ok : int;
  frames_bad : int;
  elapsed : float;
}

(* One coverage seed: a closed loop of [cover_frames] frames on the OSSS
   RTL, every frame checked against the golden control step, then the
   same frames on the gate netlist.  [covered:false] is the same run with
   nothing attached.  Builds everything it simulates, so it is safe as a
   pool shard. *)
let seed_run ?(obs = quiet) ~covered st seed =
  let t0 = Unix.gettimeofday () in
  let sim = Rtl_sim.create (Expocu_top.osss_top ()) in
  let ns = Backend.Nl_sim.create st.nl in
  let cover =
    if covered then begin
      Rtl_sim.enable_toggle_cover sim;
      Backend.Nl_sim.enable_toggle_cover ns;
      Some (Coverpoints.attach sim, Monitors.expocu_monitor sim)
    end
    else None
  in
  let camera = Camera.create ~width:Loop.width ~height:Loop.height ~seed () in
  let ok = ref 0 and bad = ref 0 in
  let tally b = if b then incr ok else incr bad in
  let rtl_counts () =
    [ Rtl_sim.comb_runs sim; Rtl_sim.comb_skips sim; Rtl_sim.sync_runs sim; Rtl_sim.cycles sim ]
  in
  Loop.reset ~target:st.target (Rtl_sim.set_input_int sim) (fun () -> Rtl_sim.step sim);
  let r0 = rtl_counts () in
  let frames =
    List.init cover_frames (fun _ ->
        let e0 = Rtl_sim.get_int sim "exposure" in
        let pixels = Camera.frame camera ~exposure:(Loop.gain e0) in
        let expect =
          Exposure_algo.control_step ~bins:Loop.bins ~target_bin:st.target
            ~exposure:e0 pixels
        in
        let done_ = ref false in
        obs.time "rtl_sim.osss" (fun () ->
            done_ :=
              Loop.drive_frame ~set:(Rtl_sim.set_input_int sim)
                ~pixel:(fun i -> Rtl_sim.set_input_int sim "pixel" pixels.(i))
                ~step:(fun () -> Rtl_sim.step sim)
                ~get:(Rtl_sim.get_int sim) (Array.length pixels));
        tally (!done_ && (Rtl_sim.get_int sim "median_bin", Rtl_sim.get_int sim "exposure") = expect);
        Option.iter (fun (cp, _) -> Coverpoints.sample_frame cp sim) cover;
        (pixels, expect))
  in
  List.iter2
    (fun name (v1, v0) -> obs.add name (float_of_int (v1 - v0)))
    [ "rtl_sim.comb_runs"; "rtl_sim.comb_skips"; "rtl_sim.sync_runs"; "rtl_sim.cycles" ]
    (List.combine (rtl_counts ()) r0);
  let module N = Backend.Nl_sim in
  Loop.reset ~target:st.target (N.set_input_int ns) (fun () -> N.step ns);
  let c0 = N.cycles ns and e0 = N.gate_evals ns and s0 = N.cells_skipped ns in
  List.iter
    (fun (pixels, expect) ->
      let done_ = ref false in
      obs.time "nl_sim" (fun () ->
          done_ :=
            Loop.drive_frame ~set:(N.set_input_int ns)
              ~pixel:(fun i -> N.set_input_int ns "pixel" pixels.(i))
              ~step:(fun () -> N.step ns)
              ~get:(N.get_output_int ns) (Array.length pixels));
      tally (!done_ && (N.get_output_int ns "median_bin", N.get_output_int ns "exposure") = expect))
    frames;
  obs.add "nl_sim.cycles" (float_of_int (N.cycles ns - c0));
  obs.add "nl_sim.evals" (float_of_int (N.gate_evals ns - e0));
  obs.add "nl_sim.skipped" (float_of_int (N.cells_skipped ns - s0));
  let db, monitors_ok =
    match cover with
    | None -> (None, true)
    | Some (cp, mon) ->
        Assert_mon.finish mon;
        let toggles prefix = function
          | Some tg -> Cover.Db.toggle_entries ~prefix tg
          | None -> []
        in
        ( Some
            (Cover.Db.make
               ~toggles:(toggles "rtl:" (Rtl_sim.toggle_cover sim) @ toggles "nl:" (N.toggle_cover ns))
               ~fsms:(Coverpoints.fsms cp) ~groups:(Coverpoints.groups cp)
               ~monitors:(Assert_mon.db_monitors mon)
               ~run:(Printf.sprintf "perfbench:seed%d" seed)
               ()),
          Assert_mon.ok mon )
  in
  { db; monitors_ok; frames_ok = !ok; frames_bad = !bad; elapsed = Unix.gettimeofday () -. t0 }

let db_string db = Obs.Json.to_string (Cover.Db.to_json db)

(* Coverage closure over the seed list at [jobs]; returns the merged
   database as text. *)
let closure ~jobs st =
  let runs =
    Par.map_list ~jobs
      ~label:(Printf.sprintf "cover-seed-%d")
      (seed_run ~covered:true st) st.cover_seeds
  in
  List.iter
    (fun r ->
      Tr.check ~what:"monitors" r.monitors_ok;
      for _ = 1 to r.frames_ok do Tr.check ~what:"coverage frame" true done;
      for _ = 1 to r.frames_bad do Tr.check ~what:"coverage frame" false done;
      Tr.add "cover.run" r.elapsed;
      Tr.add "cover.runs" 1.0)
    runs;
  let dbs = List.filter_map (fun r -> r.db) runs in
  Tr.span_ "cover.merge" (fun () ->
      match dbs with
      | [] -> ""
      | d :: rest -> db_string (List.fold_left Cover.Db.merge d rest))

let campaign ?(shrink = true) ~jobs st =
  Backend.Equiv.fault_campaign ~cycles:campaign_cycles ~seed:st.stim_seed
    ~drive:Loop.drive_released ~shrink ~jobs st.nl st.faults

(* Campaigns are compared field by field except for each shrunk
   reproducer's causal chain, which the program does not keep
   deterministic: its events carry sequence numbers of the process-wide
   event log, and at jobs > 1 even its content can differ from the jobs=1
   chain (a fault detected at cycle 0 gets an empty chain at jobs 1 and a
   one-event chain at jobs 2).  Chain differences are reported on stderr
   and do not count as failures; see README.md. *)
let without_chain (r : Backend.Equiv.fault_result) =
  match r.shrunk with
  | Some d -> { r with shrunk = Some { d with causality = [] } }
  | None -> r

let chain (r : Backend.Equiv.fault_result) =
  match r.shrunk with
  | Some d -> List.map (fun (e : Obs.Event.t) -> { e with seq = 0; cause = 0 }) d.causality
  | None -> []

let same_results (a : Backend.Equiv.campaign) (b : Backend.Equiv.campaign) =
  List.map without_chain a.fault_results = List.map without_chain b.fault_results
  && a.faults_detected = b.faults_detected
  && a.campaign_cycles = b.campaign_cycles
  &&
  let chains_differ =
    List.length
      (List.filter (fun (x, y) -> chain x <> chain y)
         (List.combine a.fault_results b.fault_results))
  in
  if chains_differ > 0 then
    Printf.eprintf
      "perfbench: note: %d shrunk reproducers' causal chains differ from the jobs=1 reference\n%!"
      chains_differ;
  true

let reference st =
  st.ref_campaign <- Some (campaign ~jobs:1 st);
  st.ref_db <- closure ~jobs:1 st

let perf name = Perf.value (Perf.counter name)

(* A closure costs about a fifth of a campaign, so a repetition runs
   [closures_per_rep] of them: more samples of [cover_seeds_per_s] for
   little extra time. *)
let closures_per_rep = 3

let rep st =
  Gc.full_major ();
  Tr.probe ~domains:jobs ();
  let p0 = (perf "par.shards", perf "par.steals") in
  let c, campaign_s = Tr.span "equiv.campaign" (fun () -> campaign ~jobs st) in
  Tr.add "equiv.campaigns" 1.0;
  Tr.add "equiv.gate_evals" (float_of_int c.Backend.Equiv.campaign_gate_evals);
  Tr.add "equiv.detected" (float_of_int c.Backend.Equiv.faults_detected);
  Tr.add "equiv.faults" (float_of_int c.Backend.Equiv.faults_total);
  Tr.check ~what:"fault campaign"
    (match st.ref_campaign with Some r -> same_results r c | None -> false);
  Tr.add "equiv.campaign_ref_s" (Tr.at_ref campaign_s);
  for _ = 1 to closures_per_rep do
    Gc.full_major ();
    Tr.probe ~domains:jobs ();
    let db, cover_s = Tr.span "cover.closure" (fun () -> closure ~jobs st) in
    Tr.check ~what:"merged coverage db" (db <> "" && db = st.ref_db);
    st.cover <- Tr.at_ref cover_s :: st.cover
  done;
  Tr.add "par.shards" (float_of_int (perf "par.shards" - fst p0));
  Tr.add "par.steals" (float_of_int (perf "par.steals" - snd p0))

(* Traced-only measurements that are not part of a repetition: grading
   without shrinking, the campaign at jobs=1 and at [jobs] back to back,
   and one coverage seed bare and covered on the calling domain. *)
let extras st =
  ignore (Tr.span_ "equiv.grade" (fun () -> campaign ~shrink:false ~jobs st));
  let serial, serial_s = Tr.span "par.serial" (fun () -> campaign ~jobs:1 st) in
  let _, jobs_s = Tr.span "par.jobs" (fun () -> campaign ~jobs st) in
  Tr.check ~what:"jobs=1 fault campaign"
    (match st.ref_campaign with Some r -> same_results r serial | None -> false);
  Tr.add "par.serial_s" serial_s;
  Tr.add "par.jobs_s" jobs_s;
  let seed = List.hd st.cover_seeds in
  let bare = seed_run ~covered:false st seed in
  let covered = seed_run ~obs:traced ~covered:true st seed in
  Tr.add "cover.overhead" (covered.elapsed /. bare.elapsed);
  Tr.add "cover.overhead_pairs" 1.0

(* [faults_per_s] varies too much from run to run on the tuning host to
   carry a bound (see README.md), so only traced runs report it, as a
   per-layer figure. *)
let e2e st =
  [
    ( "cover_seeds_per_s",
      Tr.median (List.map (fun s -> float_of_int cover_seeds_n /. s) st.cover),
      "1/s" );
  ]

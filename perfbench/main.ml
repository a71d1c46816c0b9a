(* Benchmark driver: perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   The named workload's own operations run for S seconds.  Every run must
   report every end-to-end metric, so the other two workloads' operations
   run after it, for a [side_share] of that time each.  The last line of
   standard output is the JSON result; everything else goes to standard
   error.  See README.md. *)

type activity =
  | A : {
      name : string;
      setup : seed:int -> 's;
      reference : 's -> unit;
      rep : 's -> unit;
      extras : 's -> unit;  (** traced runs only *)
      pool : bool;  (** its repetitions run [Par] pool domains *)
      e2e : 's -> (string * float * string) list;
    }
      -> activity

let nothing _ = ()

let activities =
  [
    A
      {
        name = "closed_loop";
        setup = Loop.setup;
        reference = Loop.reference;
        rep = Loop.rep;
        extras = nothing;
        pool = false;
        e2e = Loop.e2e;
      };
    A
      {
        name = "synth";
        setup = Synth_act.setup;
        reference = Synth_act.reference;
        rep = Synth_act.rep;
        extras = nothing;
        pool = false;
        e2e = Synth_act.e2e;
      };
    A
      {
        name = "verify";
        setup = Verify_act.setup;
        reference = Verify_act.reference;
        rep = Verify_act.rep;
        extras = Verify_act.extras;
        pool = true;
        e2e = Verify_act.e2e;
      };
  ]

(* Set-up is repeated, each from a cleared lowering cache, at least
   [setup_reps] times and for [setup_seconds]; [setup_s] is the median. *)
let setup_reps = 5
let setup_seconds = 0.5

(* Repetitions of the named workload: at least [min_reps].  Each other
   workload's operations get a [side_share] of the measured seconds, and
   at least [side_min_reps] repetitions, since their metrics rest on
   those alone. *)
let min_reps = 3
let side_share = 0.25
let side_min_reps = 5

(* Wall time spent with the tracer on, for the residue. *)
let traced_wall = ref 0.0

let traced f =
  Tr.enabled := true;
  let t0 = Tr.now () in
  let r = f () in
  traced_wall := !traced_wall +. (Tr.now () -. t0);
  Tr.enabled := false;
  r

let untraced f =
  let was = !Tr.enabled in
  Tr.enabled := false;
  let r = f () in
  Tr.enabled := was;
  r

(* Repetitions until [seconds] have passed (at least [min]), each after a
   host probe; returns each repetition's raw wall time. *)
let reps ?(min = min_reps) ~seconds rep =
  let t_end = Tr.now () +. seconds in
  let rec go n acc =
    if n >= min && Tr.now () >= t_end then acc
    else begin
      Tr.probe ();
      let t0 = Tr.now () in
      rep ();
      go (n + 1) ((Tr.now () -. t0) :: acc)
    end
  in
  go 0 []

(* Per-layer metrics from the spans and counters of the traced regions. *)
let layer_metrics ~gc0 ~gc1 ~overhead =
  let self = Tr.self_times () in
  let busy n = match Hashtbl.find_opt self n with Some (b, _) -> b | None -> 0.0 in
  let per_call n =
    match Hashtbl.find_opt self n with
    | Some (b, k) when k > 0 -> b /. float_of_int k
    | _ -> 0.0
  in
  let c = Tr.counter in
  let ( // ) a b = if b > 0.0 then a /. b else 0.0 in
  let pairs = c "flow.pairs" and layouts = c "flow.layouts" in
  let campaigns = c "equiv.campaigns" in
  let s n v = (n, v, "s") and r n v = (n, v, "ratio") and k n v = (n, v, "count") in
  let pc n v = (n, v, "1/cycle") and wpc n v = (n, v, "words/cycle") in
  [
    s "sim.busy_s" (busy "sim");
    pc "sim.runs_per_cycle" (c "sim.runs" // c "sim.cycles");
    wpc "sim.words_per_cycle" (c "sim.words" // c "sim.cycles");
    s "rtl_sim.osss_busy_s" (busy "rtl_sim.osss");
    s "rtl_sim.hand_busy_s" (busy "rtl_sim.hand");
    pc "rtl_sim.comb_runs_per_cycle" (c "rtl_sim.comb_runs" // c "rtl_sim.cycles");
    r "rtl_sim.comb_useful_ratio"
      (c "rtl_sim.comb_runs" // (c "rtl_sim.comb_runs" +. c "rtl_sim.comb_skips"));
    pc "rtl_sim.sync_runs_per_cycle" (c "rtl_sim.sync_runs" // c "rtl_sim.cycles");
    wpc "rtl_sim.words_per_cycle"
      ((c "rtl_sim.osss.words" +. c "rtl_sim.hand.words") // c "rtl_sim.cycles");
    s "nl_sim.busy_s" (busy "nl_sim");
    pc "nl_sim.evals_per_cycle" (c "nl_sim.evals" // c "nl_sim.cycles");
    r "nl_sim.useful_ratio" (c "nl_sim.evals" // (c "nl_sim.evals" +. c "nl_sim.skipped"));
    wpc "nl_sim.words_per_cycle" (c "nl_sim.words" // c "nl_sim.cycles");
    s "nl_wsim.busy_s" (busy "nl_wsim");
    pc "nl_wsim.evals_per_cycle" (c "nl_wsim.evals" // c "nl_wsim.cycles");
    wpc "nl_wsim.words_per_cycle" (c "nl_wsim.words" // c "nl_wsim.cycles");
    s "bitvec.pack_s" (busy "bitvec.pack");
    s "lower.s" (per_call "lower");
    s "nl_sim.create_s" (per_call "nl_sim.create");
    s "nl_wsim.create_s" (per_call "nl_wsim.create");
    s "flow.flatten_s" (busy "flow.flatten" // pairs);
    s "flow.emit_s" (busy "flow.emit" // pairs);
    s "flow.lower_s" (busy "flow.lower" // pairs);
    k "flow.lower_cache_hits" (c "flow.lower_cache_hits" // pairs);
    s "flow.opt_s" (busy "flow.opt" // pairs);
    k "flow.opt_cells_removed" (c "flow.opt_cells_removed" // pairs);
    s "flow.analyze_s" (busy "flow.analyze" // pairs);
    ("flow.words", c "flow.words" // pairs, "words");
    s "flow.techmap_s" (busy "flow.techmap" // layouts);
    s "flow.place_s" (busy "flow.place" // layouts);
    s "flow.pnr_analyze_s" (busy "flow.pnr_analyze" // layouts);
    s "equiv.grade_s" (per_call "equiv.grade");
    s "equiv.shrink_s" (per_call "equiv.campaign" -. per_call "equiv.grade");
    r "equiv.detect_ratio" (c "equiv.detected" // c "equiv.faults");
    k "equiv.gate_evals" (c "equiv.gate_evals" // campaigns);
    ("faults_per_s", c "equiv.faults" // c "equiv.campaign_ref_s", "1/s");
    r "par.speedup" (c "par.serial_s" // c "par.jobs_s");
    k "par.shards" (c "par.shards" // campaigns);
    k "par.steals" (c "par.steals" // campaigns);
    s "cover.run_s" (c "cover.run" // c "cover.runs");
    r "cover.overhead_ratio" (c "cover.overhead" // c "cover.overhead_pairs");
    s "cover.merge_s" (per_call "cover.merge");
    k "gc.minor_collections"
      (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    k "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    s "residue_s" (!traced_wall -. Tr.covered ());
    r "trace.overhead_ratio" overhead;
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let fields =
    List.map
      (fun (name, v, u) ->
        Tr.check ~what:(name ^ " was measured") (Float.is_finite v);
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!Tr.failed = 0) !Tr.attempted !Tr.failed (String.concat ", " fields)

let host_metadata () =
  Printf.sprintf
    "{\"nproc\": %s, \"recommended_domain_count\": %d, \"ocaml\": %S, \"jobs\": %d}"
    (Option.value ~default:"null" (Sys.getenv_opt "PERFBENCH_NPROC"))
    (Domain.recommended_domain_count ()) Sys.ocaml_version Verify_act.jobs

(* Runs [f], reporting its wall time on stderr. *)
let phase name f =
  let t0 = Tr.now () in
  let r = f () in
  Printf.eprintf "perfbench: %s %.1f s\n%!" name (Tr.now () -. t0);
  r

let run ~workload ~seed ~seconds ~trace =
  let home, sides =
    match List.partition (fun (A a) -> a.name = workload) activities with
    | [ home ], sides -> (home, sides)
    | _ ->
        Printf.eprintf "perfbench: unknown workload %S\n" workload;
        exit 2
  in
  Printf.eprintf "perfbench: %s seed %d, %g s, trace %b; host %s\n%!" workload seed
    seconds trace (host_metadata ());
  let in_trace f = if trace then traced f else f () in
  let (A h) = home in
  let hst, setup_times =
    in_trace (fun () ->
        let t_end = Tr.now () +. setup_seconds in
        let rec go n times =
          Tr.probe ();
          let st, t = Tr.span "setup" (fun () -> h.setup ~seed) in
          let times = Tr.at_ref t :: times in
          if n + 1 >= setup_reps && Tr.now () >= t_end then (st, times)
          else go (n + 1) times
        in
        go 0 [])
  in
  let setup_s = Tr.median setup_times in
  phase (h.name ^ " reference") (fun () -> h.reference hst);
  let gc0 = Gc.quick_stat () in
  (* The named workload's top heap, before the other workloads run.
     OCaml 5.1's [top_heap_words] is a running maximum only until pool
     domains have come and gone: after that, readings move up and down by
     half from one repetition to the next.  So it is read after the last
     repetition that runs on the calling domain alone — for verify, after
     its reference, which runs the same campaign and closure at jobs=1. *)
  let top_heap_mb () =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let heap_mb = ref (top_heap_mb ()) in
  let home_rep () =
    h.rep hst;
    if not h.pool then heap_mb := top_heap_mb ()
  in
  let overhead =
    if not trace then begin
      ignore (reps ~seconds home_rep);
      1.0
    end
    else begin
      let half = seconds /. 2.0 in
      let plain = reps ~seconds:half home_rep in
      let t = traced (fun () -> reps ~seconds:half home_rep) in
      traced (fun () -> h.extras hst);
      Tr.median t /. Tr.median plain
    end
  in
  let side_metrics =
    List.concat_map
      (fun (A s) ->
        let st = phase (s.name ^ " setup") (fun () -> in_trace (fun () -> s.setup ~seed)) in
        phase (s.name ^ " reference") (fun () -> untraced (fun () -> s.reference st));
        phase (s.name ^ " repetitions") (fun () ->
            in_trace (fun () ->
                ignore
                  (reps ~min:side_min_reps ~seconds:(seconds *. side_share) (fun () ->
                       s.rep st));
                s.extras st));
        s.e2e st)
      sides
  in
  let gc1 = Gc.quick_stat () in
  let metrics =
    if not trace then
      (("setup_s", setup_s, "s") :: h.e2e hst)
      @ side_metrics
      @ [ ("peak_heap_mb", !heap_mb, "MB") ]
    else layer_metrics ~gc0 ~gc1 ~overhead
  in
  if trace then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/trace-%s-%d.json" workload seed in
    Tr.write path ~meta:(host_metadata ());
    Printf.eprintf "perfbench: spans written to %s\n%!" path
  end;
  Printf.eprintf "perfbench: host probe median %.3f ms (%.3f ms is speed index 1)\n%!"
    (1000.0 *. Tr.median !Tr.probes) (1000.0 *. Tr.probe_ref_s);
  print_result metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME closed_loop | synth | verify");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S measured seconds of the workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)

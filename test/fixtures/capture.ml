(* Golden-fixture capture: prints deterministic observation artifacts of
   the simulators on fixed seeds, so [dune runtest] can compare them
   byte for byte against the files checked in next to this program.

     capture.exe power        Power_dyn.measure of both lowered ExpoCUs
     capture.exe trace        Engine.Trace VCD of an RTL + netlist pair
     capture.exe lanes        per-lane toggle rises/falls, 63-lane run
     capture.exe smoke FILE   hot_nets + nets_touched_per_step of a
                              bench --smoke --json report
     capture.exe digest FILE  "<bytes> <md5>" of a large artifact *)

let osss_nl = lazy (Backend.Lower.lower (Expocu.Expocu_top.osss_top ()))

let power () =
  let measure m = Synth.Power_dyn.to_json (Synth.Power_dyn.measure m) in
  let doc =
    Obs.Json.Obj
      [
        ("osss", measure (Lazy.force osss_nl));
        ( "conventional",
          measure (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ())) );
      ]
  in
  print_endline (Obs.Json.to_string ~pretty:true doc)

(* Reset-like inputs held released, everything else a pure function of
   (seed, cycle, port index) — the osss_debug stimulus convention. *)
let drive e seed c =
  List.iteri
    (fun i (name, width) ->
      let v =
        if name = "ext_reset" then Bitvec.zero width
        else
          let rng = Random.State.make [| seed; c; i |] in
          Bitvec.init width (fun _ -> Random.State.bool rng)
      in
      Engine.set_input e name v)
    (Engine.inputs e)

let trace () =
  let design = Expocu.Expocu_top.osss_top () in
  let engines =
    [
      Rtl_engine.create ~label:"rtl" design;
      Backend.Nl_engine.create ~label:"gates" (Lazy.force osss_nl);
    ]
  in
  let tr = Engine.Trace.create engines in
  Engine.Trace.sample tr;
  for c = 0 to 39 do
    List.iter (fun e -> drive e 7 c) engines;
    List.iter Engine.step engines;
    Engine.Trace.sample tr
  done;
  print_string (Engine.Trace.contents tr)

let lanes () =
  let nl = Lazy.force osss_nl in
  let n = 63 in
  let w = Backend.Nl_wsim.create ~lanes:n nl in
  let covers =
    Array.init n (fun lane ->
        let c = ref None in
        Backend.Nl_wsim.observe w ~lane (fun names ->
            let cov = Cover.Toggle.create ~names in
            c := Some cov;
            Cover.Toggle.tap cov);
        Option.get !c)
  in
  let inputs = Backend.Netlist.inputs nl in
  for c = 0 to 79 do
    List.iteri
      (fun i (name, nets) ->
        let width = Array.length nets in
        for lane = 0 to n - 1 do
          let v =
            if name = "ext_reset" then Bitvec.zero width
            else
              let rng = Random.State.make [| lane; c; i |] in
              Bitvec.init width (fun _ -> Random.State.bool rng)
          in
          Backend.Nl_wsim.set_input_lane w ~lane name v
        done)
      inputs;
    Backend.Nl_wsim.step w
  done;
  Array.iteri
    (fun lane cov ->
      for b = 0 to Cover.Toggle.bits cov - 1 do
        let r = Cover.Toggle.rises cov b and f = Cover.Toggle.falls cov b in
        if r + f > 0 then
          Printf.printf "%d %s %d %d\n" lane (Cover.Toggle.name cov b) r f
      done)
    covers

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let smoke path =
  let doc = Obs.Json.of_string (read_file path) in
  let get keys =
    List.fold_left
      (fun j k ->
        match Obs.Json.member k j with
        | Some v -> v
        | None -> failwith ("capture: no " ^ String.concat "." keys))
      doc keys
  in
  print_endline
    (Obs.Json.to_string ~pretty:true
       (Obs.Json.Obj
          [
            ("hot_nets", get [ "profiles"; "hot_nets" ]);
            ( "nets_touched_per_step",
              get [ "histograms"; "nl_sim.nets_touched_per_step" ] );
          ]))

let digest path =
  let s = read_file path in
  Printf.printf "%d %s\n" (String.length s) (Digest.to_hex (Digest.string s))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "power" ] -> power ()
  | [ "trace" ] -> trace ()
  | [ "lanes" ] -> lanes ()
  | [ "smoke"; path ] -> smoke path
  | [ "digest"; path ] -> digest path
  | _ ->
      prerr_endline "usage: capture.exe power|trace|lanes|smoke FILE|digest FILE";
      exit 2

(* One adapter for every netlist engine: a [Nl_sim] of any lane count
   behind the Engine face, differing only in its [kind] string.  Input
   ports echo their last driven (broadcast) value, zero before the
   first drive, so every port reads back through [Engine.get]. *)
type state = {
  sim : Nl_sim.t;
  ins : (string * int) list;
  outs : (string * int) list;
  driven : (string, Bitvec.t) Hashtbl.t;
  mutable probe_tbl : (string, Netlist.net) Hashtbl.t option;
      (* probe name -> net, built on first probe read *)
}

let impl sim_kind =
  (module struct
    type t = state

    let kind = sim_kind
    let inputs t = t.ins
    let outputs t = t.outs

    let set_input t name bv =
      Nl_sim.set_input t.sim name bv;
      Hashtbl.replace t.driven name bv

    let echo t name =
      match Hashtbl.find_opt t.driven name with
      | Some bv -> bv
      | None -> Bitvec.zero (List.assoc name t.ins)

    let get t name =
      if List.mem_assoc name t.outs then Nl_sim.get_output t.sim name
      else echo t name

    let settle t = Nl_sim.settle t.sim
    let step t = Nl_sim.step t.sim
    let cycles t = Nl_sim.cycles t.sim
    let lanes t = Nl_sim.lanes t.sim

    let stats t =
      [
        ("gate_evals", Nl_sim.gate_evals t.sim);
        ("cells_skipped", Nl_sim.cells_skipped t.sim);
        ("comb_cells", Nl_sim.comb_cells t.sim);
        ("dff_cells", Nl_sim.dff_cells t.sim);
        ("full_settles", Nl_sim.full_settles t.sim);
        ("lanes", Nl_sim.lanes t.sim);
        ("faults", Nl_sim.faults t.sim);
      ]

    (* Lane-0 internal nets. *)
    let probes t = List.map (fun (name, _) -> (name, 1)) (Nl_sim.probes t.sim)

    let probe t name =
      let tbl =
        match t.probe_tbl with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 64 in
            List.iter
              (fun (n, net) -> Hashtbl.replace tbl n net)
              (Nl_sim.probes t.sim);
            t.probe_tbl <- Some tbl;
            tbl
      in
      Bitvec.of_bool (Nl_sim.net_value t.sim (Hashtbl.find tbl name))

    (* Lane 0 is the canonical stimulus lane. *)
    let observe t = Nl_sim.observe t.sim
    let enable_events t = Nl_sim.enable_events t.sim

    let checkpoint t =
      let ck = Nl_sim.checkpoint t.sim in
      Some (fun () -> Nl_sim.restore t.sim ck)
  end : Engine.S
    with type t = state)

let pack ?label kind sim =
  let nl = Nl_sim.netlist sim in
  let widths = List.map (fun (n, nets) -> (n, Array.length nets)) in
  Engine.pack ?label (impl kind)
    {
      sim;
      ins = widths (Netlist.inputs nl);
      outs = widths (Netlist.outputs nl);
      driven = Hashtbl.create 8;
      probe_tbl = None;
    }

let pack_word ?label sim = pack ?label "netlist-word" sim

let create_word ?label ?mode ~lanes nl =
  pack_word ?label (Nl_sim.create ?mode ~lanes nl)

let create ?label ?(mode = Nl_sim.Event_driven) nl =
  let kind =
    match mode with
    | Nl_sim.Event_driven -> "netlist-event"
    | Nl_sim.Full_eval -> "netlist-full"
  in
  pack ?label kind (Nl_sim.create ~mode nl)

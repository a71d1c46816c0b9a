(* Port tables shared by both adapters: input ports echo their last
   driven (broadcast) value, zero before the first drive, so every port
   reads back through [Engine.get]. *)
type ports = {
  ins : (string * int) list;
  outs : (string * int) list;
  driven : (string, Bitvec.t) Hashtbl.t;
}

let ports nl =
  let widths = List.map (fun (n, nets) -> (n, Array.length nets)) in
  {
    ins = widths (Netlist.inputs nl);
    outs = widths (Netlist.outputs nl);
    driven = Hashtbl.create 8;
  }

let echo p name =
  match Hashtbl.find_opt p.driven name with
  | Some bv -> bv
  | None -> Bitvec.zero (List.assoc name p.ins)

type state = {
  sim : Nl_sim.t;
  sp : ports;
  mutable probe_tbl : (string, Netlist.net) Hashtbl.t option;
      (* probe name -> net, built on first probe read *)
}

let make_impl sim_kind =
  (module struct
    type t = state

    let kind = sim_kind
    let inputs t = t.sp.ins
    let outputs t = t.sp.outs

    let set_input t name bv =
      Nl_sim.set_input t.sim name bv;
      Hashtbl.replace t.sp.driven name bv

    let get t name =
      if List.mem_assoc name t.sp.outs then Nl_sim.get_output t.sim name
      else echo t.sp name

    let settle t = Nl_sim.settle t.sim
    let step t = Nl_sim.step t.sim
    let cycles t = Nl_sim.cycles t.sim
    let lanes _ = 1

    let set_input_lane = Engine.single_lane "Nl_engine" set_input
    let get_lane = Engine.single_lane "Nl_engine" get

    let stats t =
      [
        ("gate_evals", Nl_sim.gate_evals t.sim);
        ("cells_skipped", Nl_sim.cells_skipped t.sim);
        ("comb_cells", Nl_sim.comb_cells t.sim);
        ("dff_cells", Nl_sim.dff_cells t.sim);
        ("full_settles", Nl_sim.full_settles t.sim);
      ]

    let probes t =
      List.map (fun (name, _) -> (name, 1)) (Nl_sim.probes t.sim)

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
      let net = Hashtbl.find tbl name in
      Bitvec.init 1 (fun _ -> Nl_sim.net_value t.sim net)

    let observe t = Nl_sim.observe t.sim
    let enable_events t = Nl_sim.enable_events t.sim

    let checkpoint t =
      let ck = Nl_sim.checkpoint t.sim in
      Some (fun () -> Nl_sim.restore t.sim ck)
  end : Engine.S
    with type t = state)

(* ------------------------------------------------------------------ *)
(* Word-parallel backend: an Nl_wsim behind the same Engine face.      *)

type wstate = { wsim : Nl_wsim.t; wp : ports }

module Wimpl = struct
  type t = wstate

  let kind = "netlist-word"
  let inputs t = t.wp.ins
  let outputs t = t.wp.outs

  let set_input t name bv =
    Nl_wsim.set_input t.wsim name bv;
    Hashtbl.replace t.wp.driven name bv

  let get t name =
    if List.mem_assoc name t.wp.outs then Nl_wsim.get_output t.wsim name
    else echo t.wp name

  let settle t = Nl_wsim.settle t.wsim
  let step t = Nl_wsim.step t.wsim
  let cycles t = Nl_wsim.cycles t.wsim
  let lanes t = Nl_wsim.lanes t.wsim

  let set_input_lane t ~lane name bv =
    Nl_wsim.set_input_lane t.wsim ~lane name bv

  let get_lane t ~lane name =
    if List.mem_assoc name t.wp.outs then Nl_wsim.get_output ~lane t.wsim name
    else begin
      (* Inputs echo the last broadcast value; per-lane input history
         is not retained. *)
      if lane < 0 || lane >= Nl_wsim.lanes t.wsim then
        invalid_arg (Printf.sprintf "Nl_engine.get_lane: lane %d" lane);
      echo t.wp name
    end

  let stats t =
    [
      ("gate_evals", Nl_wsim.gate_evals t.wsim);
      ("cells_skipped", Nl_wsim.cells_skipped t.wsim);
      ("comb_cells", Nl_wsim.comb_cells t.wsim);
      ("dff_cells", Nl_wsim.dff_cells t.wsim);
      ("full_settles", Nl_wsim.full_settles t.wsim);
      ("lanes", Nl_wsim.lanes t.wsim);
      ("faults", Nl_wsim.faults t.wsim);
    ]

  let probes _ = []
  let probe _ _ = raise Not_found

  (* Lane 0 is the canonical stimulus lane. *)
  let observe t = Nl_wsim.observe t.wsim ~lane:0
  let enable_events t = Nl_wsim.enable_events t.wsim

  let checkpoint t =
    let ck = Nl_wsim.checkpoint t.wsim in
    Some (fun () -> Nl_wsim.restore t.wsim ck)
end

let pack_word ?label wsim =
  Engine.pack ?label (module Wimpl) { wsim; wp = ports (Nl_wsim.netlist wsim) }

let create_word ?label ?(mode = Nl_wsim.Event_driven) ~lanes nl =
  pack_word ?label (Nl_wsim.create ~mode ~lanes nl)

let create ?label ?(mode = Nl_sim.Event_driven) nl =
  let sim_kind =
    match mode with
    | Nl_sim.Event_driven -> "netlist-event"
    | Nl_sim.Full_eval -> "netlist-full"
  in
  Engine.pack ?label (make_impl sim_kind)
    { sim = Nl_sim.create ~mode nl; sp = ports nl; probe_tbl = None }

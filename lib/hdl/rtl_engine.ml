let ports dir (m : Ir.module_def) =
  List.filter_map
    (fun (p : Ir.port) ->
      if p.dir = dir then Some (p.port_name, p.port_var.Ir.width) else None)
    m.ports

module Impl = struct
  type t = Rtl_sim.t

  let kind = "rtl-interp"
  let inputs sim = ports Ir.Input (Rtl_sim.design sim)
  let outputs sim = ports Ir.Output (Rtl_sim.design sim)
  let set_input = Rtl_sim.set_input
  let get = Rtl_sim.get
  let settle = Rtl_sim.settle
  let step = Rtl_sim.step
  let cycles = Rtl_sim.cycles
  let lanes _ = 1

  let stats sim =
    [
      ("settles", Rtl_sim.settles sim);
      ("comb_runs", Rtl_sim.comb_runs sim);
      ("comb_skips", Rtl_sim.comb_skips sim);
      ("sync_runs", Rtl_sim.sync_runs sim);
    ]

  (* The RTL interpreter works on named variables, not nets; it has no
     sub-module hierarchy to probe after flattening. *)
  let probes _ = []
  let probe _ _ = raise Not_found
  let observe = Rtl_sim.observe
  let enable_events = Rtl_sim.enable_events

  let checkpoint sim =
    let ck = Rtl_sim.checkpoint sim in
    Some (fun () -> Rtl_sim.restore sim ck)
end

let create ?label design =
  Engine.pack ?label (module Impl) (Rtl_sim.create design)

(** {!Engine} adapter for the gate-level netlist simulator ({!Nl_sim}),
    one for every lane count.

    Input ports echo their last driven value (zero before the first
    drive) so the consolidated trace can record stimulus alongside
    outputs.  Plain [Engine.set_input] broadcasts to every lane,
    [Engine.get], [Engine.probes]/[Engine.probe] and [Engine.observe]
    address lane 0 — so in a lockstep differential against a scalar
    engine the golden lane is what gets compared.  Individual lanes
    are driven and read through the {!Nl_sim} handed to
    {!pack_word}. *)

val create : ?label:string -> ?mode:Nl_sim.mode -> Netlist.t -> Engine.t
(** A 1-lane simulator; [kind] is ["netlist-event"] or ["netlist-full"]
    depending on the scheduling mode. *)

val create_word :
  ?label:string -> ?mode:Nl_sim.mode -> lanes:int -> Netlist.t -> Engine.t
(** A [lanes]-lane simulator, [kind] ["netlist-word"]; [Engine.lanes]
    reports the lane count. *)

val pack_word : ?label:string -> Nl_sim.t -> Engine.t
(** Wrap an existing simulator (e.g. one that already has faults
    injected via {!Nl_sim.inject_stuck_at}), [kind] ["netlist-word"]. *)

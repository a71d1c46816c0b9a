(** {!Engine} adapter for the gate-level netlist simulator
    ({!Nl_sim}).

    [kind] is ["netlist-event"] or ["netlist-full"] depending on the
    scheduling mode; input ports echo their last driven value (zero
    before the first drive) so the consolidated trace can record
    stimulus alongside outputs. *)

val create : ?label:string -> ?mode:Nl_sim.mode -> Netlist.t -> Engine.t

val create_word :
  ?label:string -> ?mode:Nl_wsim.mode -> lanes:int -> Netlist.t -> Engine.t
(** Word-parallel backend ({!Nl_wsim}), [kind] ["netlist-word"]:
    [Engine.lanes] reports the lane count, [Engine.set_input_lane] /
    [Engine.get_lane] address individual lanes, plain
    [Engine.set_input] broadcasts to every lane and [Engine.get] reads
    lane 0 — so in a lockstep differential against a scalar engine the
    golden lane is what gets compared.  [Engine.observe] subscribes to
    lane 0. *)

val pack_word : ?label:string -> Nl_wsim.t -> Engine.t
(** Wrap an existing word-parallel simulator (e.g. one that already has
    faults injected via {!Nl_wsim.inject_stuck_at}). *)

module type S = sig
  type t

  val kind : string
  val inputs : t -> (string * int) list
  val outputs : t -> (string * int) list
  val set_input : t -> string -> Bitvec.t -> unit
  val get : t -> string -> Bitvec.t
  val settle : t -> unit
  val step : t -> unit
  val cycles : t -> int
  val lanes : t -> int
  val stats : t -> (string * int) list
  val probes : t -> (string * int) list
  val probe : t -> string -> Bitvec.t
  val observe : t -> (string array -> Cover.Tap.t) -> unit
  val enable_events : t -> unit
  val checkpoint : t -> (unit -> unit) option
end

type t = Pack : (module S with type t = 'a) * 'a * string -> t

let pack (type a) ?label (m : (module S with type t = a)) (state : a) =
  let module M = (val m) in
  Pack (m, state, Option.value label ~default:M.kind)

let label (Pack (_, _, l)) = l
let kind (Pack ((module M), _, _)) = M.kind
let inputs (Pack ((module M), e, _)) = M.inputs e
let outputs (Pack ((module M), e, _)) = M.outputs e
let set_input (Pack ((module M), e, _)) name bv = M.set_input e name bv
let get (Pack ((module M), e, _)) name = M.get e name
let settle (Pack ((module M), e, _)) = M.settle e
let step (Pack ((module M), e, _)) = M.step e
let cycles (Pack ((module M), e, _)) = M.cycles e
let lanes (Pack ((module M), e, _)) = M.lanes e
let stats (Pack ((module M), e, _)) = M.stats e
let probes (Pack ((module M), e, _)) = M.probes e
let probe (Pack ((module M), e, _)) name = M.probe e name
let observe (Pack ((module M), e, _)) f = M.observe e f
let enable_events (Pack ((module M), e, _)) = M.enable_events e
let checkpoint_thunk (Pack ((module M), e, _)) = M.checkpoint e

(* Engine-level checkpoints: the backend's restore closure stamped with
   the cycle and instance label it was taken at. *)
type checkpoint = {
  ck_cycle : int;
  ck_label : string;
  ck_restore : unit -> unit;
}

let checkpoint (Pack ((module M), e, l)) =
  match M.checkpoint e with
  | None -> None
  | Some restore ->
      Some { ck_cycle = M.cycles e; ck_label = l; ck_restore = restore }

let restore ck = ck.ck_restore ()
let checkpoint_cycle ck = ck.ck_cycle

let run e n =
  for _ = 1 to n do
    step e
  done

let port_width ports name =
  match List.assoc_opt name ports with
  | Some w -> w
  | None -> raise Not_found

let set_input_int e name n =
  set_input e name (Bitvec.of_int ~width:(port_width (inputs e) name) n)

let get_int e name = Bitvec.to_int (get e name)

(* ------------------------------------------------------------------ *)
(* Fault injection: a transparent wrapper corrupting one output.       *)

type fault = {
  inner : t;
  fault_port : string;
  from_cycle : int;
  mutable fault_events : bool;  (* [enable_events] was called *)
  mutable last_fault_emit : int;
      (* cycle of the last Fault event, so an armed cycle with many
         reads records the corruption once *)
}

module Faulty = struct
  type t = fault

  let kind = "fault"
  let inputs f = inputs f.inner
  let outputs f = outputs f.inner
  let set_input f name bv = set_input f.inner name bv

  let flip v = Bitvec.set_bit v 0 (not (Bitvec.get v 0))
  let armed f = cycles f.inner >= f.from_cycle

  (* Insert the corruption into the causal record, once per armed
     cycle: a [Fault] event on the port, caused by whatever last moved
     it, so a [why] query over the corrupted value reaches the
     injection instead of dead-ending at the healthy driver.  Only a
     wrapper whose events were enabled records: other engines stepping
     while the process-wide log is on must not write into it. *)
  let ev_fault f v =
    let cyc = cycles f.inner in
    if f.fault_events && Obs.Event.enabled () && f.last_fault_emit <> cyc
    then begin
      f.last_fault_emit <- cyc;
      let cause =
        match Obs.Event.latest ~subject:f.fault_port () with
        | Some e -> e.Obs.Event.seq
        | None -> Obs.Event.no_cause
      in
      ignore
        (Obs.Event.emit ~cycle:cyc ~value:(Bool.to_int (Bitvec.get v 0))
           ~cause Obs.Event.Fault f.fault_port)
    end;
    v

  let get f name =
    let v = get f.inner name in
    if name = f.fault_port && armed f then ev_fault f (flip v) else v

  let settle f = settle f.inner
  let step f = step f.inner
  let cycles f = cycles f.inner
  let lanes f = lanes f.inner

  let stats f = stats f.inner
  let probes f = probes f.inner
  let probe f name = probe f.inner name
  let observe f = observe f.inner

  let enable_events f =
    f.fault_events <- true;
    enable_events f.inner
  let checkpoint f = checkpoint_thunk f.inner
end

let inject_fault ?(from_cycle = 0) ~port e =
  (match List.assoc_opt port (outputs e) with
  | Some _ -> ()
  | None -> invalid_arg ("Engine.inject_fault: no output port " ^ port));
  pack
    ~label:(label e ^ "+fault:" ^ port)
    (module Faulty)
    {
      inner = e;
      fault_port = port;
      from_cycle;
      fault_events = false;
      last_fault_emit = -1;
    }

(* ------------------------------------------------------------------ *)
(* Consolidated tracing over any engine set.                           *)

module Trace = struct
  type channel = {
    ch_id : Vcd_writer.id;
    ch_engine : t;
    ch_read : unit -> Bitvec.t;
    mutable ch_last : Bitvec.t option;
  }

  type tracer = { doc : Vcd_writer.t; channels : channel list }

  let create ?(top = "engines") engines =
    let doc =
      Vcd_writer.create ~date:"osss engine trace"
        ~version:"osss-ocaml engine trace" ~timescale:"1ns" ~top ()
    in
    let channels =
      List.concat_map
        (fun e ->
          let scope = label e in
          let ports =
            List.map
              (fun (port, width) ->
                {
                  ch_id = Vcd_writer.register doc ~scope ~name:port ~width ();
                  ch_engine = e;
                  ch_read = (fun () -> get e port);
                  ch_last = None;
                })
              (inputs e @ outputs e)
          in
          (* Internal probes nest under the engine scope along their
             hierarchical paths: "u_hist.count[3]" becomes signal
             [count[3]] in scope <label>.u_hist. *)
          let internal =
            List.map
              (fun (full, width) ->
                let scope, name =
                  match String.rindex_opt full '.' with
                  | Some i ->
                      ( scope ^ "." ^ String.sub full 0 i,
                        String.sub full (i + 1) (String.length full - i - 1) )
                  | None -> (scope, full)
                in
                {
                  ch_id = Vcd_writer.register doc ~scope ~name ~width ();
                  ch_engine = e;
                  ch_read = (fun () -> probe e full);
                  ch_last = None;
                })
              (probes e)
          in
          ports @ internal)
        engines
    in
    { doc; channels }

  let sample tr =
    let time =
      List.fold_left (fun acc ch -> max acc (cycles ch.ch_engine)) 0 tr.channels
    in
    List.iter
      (fun ch ->
        let v = ch.ch_read () in
        match ch.ch_last with
        | Some previous when Bitvec.equal previous v -> ()
        | Some _ | None ->
            ch.ch_last <- Some v;
            Vcd_writer.change_bv tr.doc ~time ch.ch_id v)
      tr.channels

  let signal_count tr = List.length tr.channels
  let contents tr = Vcd_writer.contents tr.doc
  let save tr path = Vcd_writer.save tr.doc path
end

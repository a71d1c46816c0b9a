(* Global activity counters (see Metrics.Perf). *)
let ctr_evals = Perf.counter "nl_sim.gate_evals"
let ctr_skipped = Perf.counter "nl_sim.cells_skipped"
let ctr_full = Perf.counter "nl_sim.full_settles"

(* Distributions per settle/step (see Obs.Hist; off unless enabled). *)
let hist_evals = Obs.Hist.histogram "nl_sim.evals_per_settle"
let hist_touched = Obs.Hist.histogram "nl_sim.nets_touched_per_step"

type mode = Event_driven | Full_eval

exception Combinational_loop of { module_name : string; net : int }

let () =
  Printexc.register_printer (function
    | Combinational_loop { module_name; net } ->
        Some
          (Printf.sprintf "Nl_sim.Combinational_loop(net %d in %s)" net
             module_name)
    | _ -> None)

type t = {
  nl : Netlist.t;
  mode : mode;
  values : bool array;  (* indexed by net *)
  order : Netlist.cell array;  (* combinational cells, topologically sorted *)
  dffs : Netlist.cell array;
  in_nets : (string, Netlist.net array) Hashtbl.t;
  out_nets : (string, Netlist.net array) Hashtbl.t;
  (* Event-driven machinery.  [level.(ci)] is the logic depth of cell
     [order.(ci)]; a cell's level is strictly greater than the level of
     any combinational cell driving one of its inputs, so one ascending
     sweep over [buckets] settles the dirty region. *)
  level : int array;  (* per index into [order] *)
  fanout : int array array;  (* net -> indices into [order] reading it *)
  buckets : int list array;  (* per level: pending cell indices *)
  pending : bool array;  (* per index into [order]: already scheduled *)
  mutable need_full : bool;  (* next settle evaluates everything *)
  (* Change epoch (clock edge + post-edge settle), open only while a
     subscriber or the [nets_touched_per_step] histogram listens: the
     value each touched net had when the epoch opened, recorded lazily
     at its first change.  Bit-identical to the full snapshot/compare
     of [Full_eval] mode (which snapshots into [epoch_pre]) because
     inputs never move during the epoch. *)
  epoch_pre : bool array;
  epoch_seen : bool array;
  mutable epoch_touched : int list;
  mutable in_epoch : bool;
  mutable n_cycles : int;
  mutable n_evals : int;
  mutable n_skipped : int;
  mutable n_full_settles : int;
  (* Optional per-cell evaluation profile (indexed like [order]);
     [ [||] ] until [enable_profile] allocates it. *)
  mutable profiling : bool;
  mutable eval_counts : int array;
  (* Observation tap subscribers, in subscription order (see
     Cover.Tap), and the collector [enable_toggle_cover] subscribed. *)
  mutable subs : Cover.Tap.t list;
  mutable toggle : Cover.Toggle.t option;
  (* Per-net labels for subscribers and events; [ [||] ] until first
     needed. *)
  mutable labels : string array;
  (* Causal event log plumbing (see Obs.Event), allocated lazily by
     [enable_events]: [ev_last.(n)] is the seq of net [n]'s latest
     change event, so a cell evaluation that moves its output is caused
     by the latest change among its input nets — the fanout propagation
     made explicit.  [ev_ctx]/[ev_ctx_stim] carry the cause/kind for
     the shared [drive] path (stimulus vs flip-flop commit).  Off by
     default: the hot paths pay one [ev_on] branch per changed net. *)
  mutable ev_on : bool;
  mutable ev_last : int array;
  mutable ev_ctx : int;
  mutable ev_ctx_stim : bool;
}

let topo_order nl =
  let cells = Netlist.cells nl in
  let comb = List.filter (fun c -> c.Netlist.kind <> Cell.Dff) cells in
  let state = Hashtbl.create 256 in
  let order = ref [] in
  let rec visit (c : Netlist.cell) =
    match Hashtbl.find_opt state c.out with
    | Some 2 -> ()
    | Some 1 ->
        raise
          (Combinational_loop { module_name = Netlist.name nl; net = c.out })
    | _ ->
        Hashtbl.replace state c.out 1;
        Array.iter
          (fun n ->
            match Netlist.driver nl n with
            | Some d when d.Netlist.kind <> Cell.Dff -> visit d
            | Some _ | None -> ())
          c.ins;
        Hashtbl.replace state c.out 2;
        order := c :: !order
  in
  List.iter visit comb;
  Array.of_list (List.rev !order)

(* Static scheduling structure, shared with the word-parallel simulator
   ([Nl_wsim]): both walk the same topological order, levels and fanout
   lists, so their activity-based scheduling is identical by
   construction. *)
module Sched = struct
  type t = {
    order : Netlist.cell array;
    dffs : Netlist.cell array;
    level : int array;
    fanout : int array array;
    n_levels : int;
    in_nets : (string, Netlist.net array) Hashtbl.t;
    out_nets : (string, Netlist.net array) Hashtbl.t;
  }

  let build nl =
    Netlist.check nl;
    let in_nets = Hashtbl.create 8 and out_nets = Hashtbl.create 8 in
    List.iter
      (fun (n, nets) -> Hashtbl.replace in_nets n nets)
      (Netlist.inputs nl);
    List.iter
      (fun (n, nets) -> Hashtbl.replace out_nets n nets)
      (Netlist.outputs nl);
    let dffs =
      List.filter (fun c -> c.Netlist.kind = Cell.Dff) (Netlist.cells nl)
      |> Array.of_list
    in
    let order = topo_order nl in
    let n_comb = Array.length order in
    let n_nets = Netlist.net_count nl in
    (* Levelization: primary inputs, constants-free nets and flip-flop
       outputs sit at depth 0; each cell one past its deepest input. *)
    let net_level = Array.make n_nets 0 in
    let level = Array.make n_comb 0 in
    let n_levels = ref 1 in
    Array.iteri
      (fun ci (c : Netlist.cell) ->
        let l =
          Array.fold_left (fun acc n -> max acc (net_level.(n) + 1)) 0 c.ins
        in
        level.(ci) <- l;
        net_level.(c.out) <- l;
        if l + 1 > !n_levels then n_levels := l + 1)
      order;
    (* Per-net fanout lists (combinational readers only), count-then-fill. *)
    let fan_count = Array.make n_nets 0 in
    Array.iter
      (fun (c : Netlist.cell) ->
        Array.iter (fun n -> fan_count.(n) <- fan_count.(n) + 1) c.ins)
      order;
    let fanout = Array.init n_nets (fun n -> Array.make fan_count.(n) 0) in
    let cursor = Array.make n_nets 0 in
    Array.iteri
      (fun ci (c : Netlist.cell) ->
        Array.iter
          (fun n ->
            fanout.(n).(cursor.(n)) <- ci;
            cursor.(n) <- cursor.(n) + 1)
          c.ins)
      order;
    { order; dffs; level; fanout; n_levels = !n_levels; in_nets; out_nets }

  (* Human-readable net labels: port bits by name ("bus[i]", or the bare
     name for width-1 buses), internal nets by their hierarchical
     description from lowering ("u_hist.count[3]"), remaining anonymous
     nets as "n<id>". *)
  let net_labels nl =
    let labels = Array.make (Netlist.net_count nl) "" in
    let fill ports =
      List.iter
        (fun (name, nets) ->
          if Array.length nets = 1 then labels.(nets.(0)) <- name
          else
            Array.iteri
              (fun i n -> labels.(n) <- Printf.sprintf "%s[%d]" name i)
              nets)
        ports
    in
    fill (Netlist.inputs nl);
    fill (Netlist.outputs nl);
    Array.mapi
      (fun n l -> if l = "" then Netlist.describe_net nl n else l)
      labels
end

let create ?(mode = Event_driven) nl =
  let s = Sched.build nl in
  let n_nets = Netlist.net_count nl in
  {
    nl;
    mode;
    values = Array.make n_nets false;
    order = s.Sched.order;
    dffs = s.Sched.dffs;
    in_nets = s.Sched.in_nets;
    out_nets = s.Sched.out_nets;
    level = s.Sched.level;
    fanout = s.Sched.fanout;
    buckets = Array.make s.Sched.n_levels [];
    pending = Array.make (Array.length s.Sched.order) false;
    need_full = true;
    epoch_pre = Array.make n_nets false;
    epoch_seen = Array.make n_nets false;
    epoch_touched = [];
    in_epoch = false;
    n_cycles = 0;
    n_evals = 0;
    n_skipped = 0;
    n_full_settles = 0;
    profiling = false;
    eval_counts = [||];
    subs = [];
    toggle = None;
    labels = [||];
    ev_on = false;
    ev_last = [||];
    ev_ctx = Obs.Event.no_cause;
    ev_ctx_stim = true;
  }

(* ------------------------------------------------------------------ *)
(* Causal event emission (event-driven mode; [Full_eval] re-evaluates
   everything every settle and carries no change causality).           *)

let net_labels t =
  if Array.length t.labels = 0 then t.labels <- Sched.net_labels t.nl;
  t.labels

let enable_events t =
  if Array.length t.ev_last = 0 then
    t.ev_last <- Array.make (Netlist.net_count t.nl) Obs.Event.no_cause;
  t.ev_on <- true;
  if not (Obs.Event.enabled ()) then Obs.Event.enable ()

let emitting t = t.ev_on && Obs.Event.enabled ()

(* A cell evaluation is caused by the latest change among its inputs. *)
let ev_cell_cause t (c : Netlist.cell) =
  let best = ref Obs.Event.no_cause in
  Array.iter
    (fun n -> if t.ev_last.(n) > !best then best := t.ev_last.(n))
    c.ins;
  !best

let ev_net t n v kind cause =
  let s =
    Obs.Event.emit ~cycle:t.n_cycles ~value:(Bool.to_int v) ~cause kind
      (net_labels t).(n)
  in
  t.ev_last.(n) <- s

let schedule t ci =
  if not t.pending.(ci) then begin
    t.pending.(ci) <- true;
    let l = t.level.(ci) in
    t.buckets.(l) <- ci :: t.buckets.(l)
  end

let record_epoch t n =
  if t.in_epoch && not t.epoch_seen.(n) then begin
    t.epoch_seen.(n) <- true;
    t.epoch_pre.(n) <- t.values.(n);
    t.epoch_touched <- n :: t.epoch_touched
  end

(* Write a net and wake its combinational readers if the value moved.
   Callers are stimulus ([ev_ctx_stim], no cause) and the flip-flop
   commit of [step_event] ([ev_ctx] = the D input's latest change). *)
let drive t n v =
  if t.values.(n) <> v then begin
    record_epoch t n;
    t.values.(n) <- v;
    Array.iter (fun ci -> schedule t ci) t.fanout.(n);
    if emitting t then
      ev_net t n v
        (if t.ev_ctx_stim then Obs.Event.Stimulus else Obs.Event.Net_change)
        t.ev_ctx
  end

(* Prebound input-port handles: the stimulus hot path pays the name
   lookup once, then drives bits straight out of a machine word (no
   per-bit [Bitvec.get] limb arithmetic for ports up to 62 bits). *)
type port = { p_name : string; p_nets : Netlist.net array }

let in_port t name =
  match Hashtbl.find_opt t.in_nets name with
  | Some nets -> { p_name = name; p_nets = nets }
  | None -> raise Not_found

(* Bit [i] of the two's-complement int [v] ([asr] caps at the sign). *)
let int_bit v i = (v asr min i 62) land 1 = 1

let drive_port_int t p v =
  let nets = p.p_nets in
  match t.mode with
  | Full_eval ->
      for i = 0 to Array.length nets - 1 do
        t.values.(Array.unsafe_get nets i) <- int_bit v i
      done
  | Event_driven ->
      for i = 0 to Array.length nets - 1 do
        drive t (Array.unsafe_get nets i) (int_bit v i)
      done

let drive_port t p bv =
  let w = Array.length p.p_nets in
  if Bitvec.width bv <> w then
    invalid_arg
      (Printf.sprintf "Nl_sim.set_input %s: width %d expected %d" p.p_name
         (Bitvec.width bv) w);
  if w <= 62 then drive_port_int t p (Bitvec.to_int bv)
  else
    match t.mode with
    | Full_eval ->
        Array.iteri (fun i n -> t.values.(n) <- Bitvec.get bv i) p.p_nets
    | Event_driven ->
        Array.iteri (fun i n -> drive t n (Bitvec.get bv i)) p.p_nets

let set_input t name bv = drive_port t (in_port t name) bv
let set_input_int t name v = drive_port_int t (in_port t name) v

let read_bus t nets =
  Bitvec.init (Array.length nets) (fun i -> t.values.(nets.(i)))

let get_output t name =
  match Hashtbl.find_opt t.out_nets name with
  | None -> raise Not_found
  | Some nets -> read_bus t nets

let get_output_int t name = Bitvec.to_int (get_output t name)

let eval_kind t (c : Netlist.cell) =
  let v = t.values in
  match c.kind with
  | Cell.Const0 -> false
  | Const1 -> true
  | Buf -> v.(c.ins.(0))
  | Not -> not v.(c.ins.(0))
  | And2 -> v.(c.ins.(0)) && v.(c.ins.(1))
  | Or2 -> v.(c.ins.(0)) || v.(c.ins.(1))
  | Xor2 -> v.(c.ins.(0)) <> v.(c.ins.(1))
  | Nand2 -> not (v.(c.ins.(0)) && v.(c.ins.(1)))
  | Nor2 -> not (v.(c.ins.(0)) || v.(c.ins.(1)))
  | Mux2 -> if v.(c.ins.(0)) then v.(c.ins.(1)) else v.(c.ins.(2))
  | Dff -> v.(c.out)

let eval_cell t (c : Netlist.cell) = t.values.(c.out) <- eval_kind t c

let settle_full t =
  if t.profiling then
    Array.iteri
      (fun ci c ->
        eval_cell t c;
        t.eval_counts.(ci) <- t.eval_counts.(ci) + 1)
      t.order
  else Array.iter (eval_cell t) t.order;
  t.n_evals <- t.n_evals + Array.length t.order;
  t.n_full_settles <- t.n_full_settles + 1;
  Perf.incr ~by:(Array.length t.order) ctr_evals;
  Obs.Hist.observe_int hist_evals (Array.length t.order)

(* One settle in event mode: either a forced full pass (first settle, in
   topological order, epoch recording preserved) or an ascending-level
   sweep of the scheduled cells.  A cell's fanout lives at strictly
   higher levels, so each level's bucket is complete when reached. *)
let settle_event t =
  if t.need_full then begin
    t.need_full <- false;
    Array.iteri
      (fun ci (c : Netlist.cell) ->
        let r = eval_kind t c in
        if t.profiling then t.eval_counts.(ci) <- t.eval_counts.(ci) + 1;
        if t.values.(c.out) <> r then begin
          record_epoch t c.out;
          t.values.(c.out) <- r;
          if emitting t then
            ev_net t c.out r Obs.Event.Net_change (ev_cell_cause t c)
        end)
      t.order;
    t.n_evals <- t.n_evals + Array.length t.order;
    t.n_full_settles <- t.n_full_settles + 1;
    Perf.incr ~by:(Array.length t.order) ctr_evals;
    Perf.incr ctr_full;
    Obs.Hist.observe_int hist_evals (Array.length t.order);
    (* Anything scheduled beforehand was just evaluated. *)
    Array.iteri
      (fun l b ->
        List.iter (fun ci -> t.pending.(ci) <- false) b;
        t.buckets.(l) <- [])
      t.buckets
  end
  else begin
    let evals = ref 0 in
    for l = 0 to Array.length t.buckets - 1 do
      let rec drain () =
        match t.buckets.(l) with
        | [] -> ()
        | ci :: rest ->
            t.buckets.(l) <- rest;
            t.pending.(ci) <- false;
            let c = t.order.(ci) in
            let r = eval_kind t c in
            incr evals;
            if t.profiling then t.eval_counts.(ci) <- t.eval_counts.(ci) + 1;
            if t.values.(c.out) <> r then begin
              record_epoch t c.out;
              t.values.(c.out) <- r;
              Array.iter (fun cj -> schedule t cj) t.fanout.(c.out);
              if emitting t then
                ev_net t c.out r Obs.Event.Net_change (ev_cell_cause t c)
            end;
            drain ()
      in
      drain ()
    done;
    t.n_evals <- t.n_evals + !evals;
    Perf.incr ~by:!evals ctr_evals;
    Obs.Hist.observe_int hist_evals !evals;
    let skipped = Array.length t.order - !evals in
    t.n_skipped <- t.n_skipped + skipped;
    Perf.incr ~by:skipped ctr_skipped
  end

let settle_inner t =
  match t.mode with Full_eval -> settle_full t | Event_driven -> settle_event t

let settle t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"nl_sim.settle" (fun () ->
        let e0 = t.n_evals in
        settle_inner t;
        Obs.Span.add_attr_int "evals" (t.n_evals - e0))
  else settle_inner t

let end_cycle t =
  Cover.Tap.cycle_end_all t.subs;
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Cover_epoch
         (Netlist.name t.nl))

let step_full t =
  settle_full t;
  (* Changes are reported once per cycle, against the settled pre-edge
     values; a per-settle count would double-book glitch-free nets. *)
  let observed = t.subs <> [] in
  if observed then Array.blit t.values 0 t.epoch_pre 0 (Array.length t.values);
  (* Sample every d, then commit: flip-flops see the pre-edge values. *)
  let sampled = Array.map (fun c -> t.values.(c.Netlist.ins.(0))) t.dffs in
  Array.iteri (fun i c -> t.values.(c.Netlist.out) <- sampled.(i)) t.dffs;
  t.n_evals <- t.n_evals + Array.length t.dffs;
  Perf.incr ~by:(Array.length t.dffs) ctr_evals;
  t.n_cycles <- t.n_cycles + 1;
  settle_full t;
  if observed then begin
    for n = 0 to Array.length t.values - 1 do
      if t.values.(n) <> t.epoch_pre.(n) then
        Cover.Tap.change_all t.subs n ~rising:t.values.(n)
    done;
    end_cycle t
  end

let step_event t =
  (* Flush pending input changes first; the change epoch then covers
     exactly the clock edge and the post-edge settle, like the snapshot
     window of [Full_eval]. *)
  settle_event t;
  t.in_epoch <- t.subs <> [] || Obs.Hist.enabled ();
  let sampled = Array.map (fun c -> t.values.(c.Netlist.ins.(0))) t.dffs in
  if emitting t then begin
    (* Causes sampled pre-commit: a flip-flop output change is caused
       by the change that last moved its D input, not by commits of
       other flip-flops this edge. *)
    let causes =
      Array.map (fun (c : Netlist.cell) -> t.ev_last.(c.ins.(0))) t.dffs
    in
    t.ev_ctx_stim <- false;
    Array.iteri
      (fun i (c : Netlist.cell) ->
        t.ev_ctx <- causes.(i);
        drive t c.out sampled.(i))
      t.dffs;
    t.ev_ctx_stim <- true;
    t.ev_ctx <- Obs.Event.no_cause
  end
  else
    Array.iteri (fun i c -> drive t c.Netlist.out sampled.(i)) t.dffs;
  t.n_evals <- t.n_evals + Array.length t.dffs;
  Perf.incr ~by:(Array.length t.dffs) ctr_evals;
  t.n_cycles <- t.n_cycles + 1;
  settle_event t;
  if t.in_epoch then begin
    if Obs.Hist.enabled () then
      Obs.Hist.observe_int hist_touched (List.length t.epoch_touched);
    List.iter
      (fun n ->
        if t.subs <> [] && t.values.(n) <> t.epoch_pre.(n) then
          Cover.Tap.change_all t.subs n ~rising:t.values.(n);
        t.epoch_seen.(n) <- false)
      t.epoch_touched;
    t.epoch_touched <- [];
    t.in_epoch <- false;
    if t.subs <> [] then end_cycle t
  end

let step_inner t =
  match t.mode with Full_eval -> step_full t | Event_driven -> step_event t

let step t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"nl_sim.step"
      ~attrs:[ ("cycle", string_of_int t.n_cycles) ]
      (fun () ->
        let e0 = t.n_evals in
        step_inner t;
        Obs.Span.add_attr_int "evals" (t.n_evals - e0))
  else step_inner t

let run t n =
  for _ = 1 to n do
    step t
  done

let cycles t = t.n_cycles
let gate_evals t = t.n_evals
let cells_skipped t = t.n_skipped
let comb_cells t = Array.length t.order
let dff_cells t = Array.length t.dffs
let full_settles t = t.n_full_settles

let enable_profile t =
  if not t.profiling then begin
    t.profiling <- true;
    t.eval_counts <- Array.make (Array.length t.order) 0
  end

let profiling t = t.profiling

let net_value t n = t.values.(n)

(* Hinted internal nets, for hierarchical waveform probes.  Port nets
   are excluded — they are traced under their port names already. *)
let probes t =
  let port_net = Hashtbl.create 64 in
  List.iter
    (fun (_, nets) -> Array.iter (fun n -> Hashtbl.replace port_net n ()) nets)
    (Netlist.inputs t.nl @ Netlist.outputs t.nl);
  let acc = ref [] in
  for n = Netlist.net_count t.nl - 1 downto 0 do
    if (not (Hashtbl.mem port_net n)) && Netlist.hint_of t.nl n <> None then
      acc := (Netlist.describe_net t.nl n, n) :: !acc
  done;
  List.sort compare !acc

let observe t f = t.subs <- t.subs @ [ f (net_labels t) ]

let enable_toggle_cover t =
  if t.toggle = None then
    observe t (fun names ->
        let c = Cover.Toggle.create ~names in
        t.toggle <- Some c;
        Cover.Toggle.tap c)

let toggle_cover t = t.toggle

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore: net values plus the event-driven scheduler
   state (pending set and level buckets) and the cycle count.
   Subscribers and activity profiles are deliberately not captured — a
   restore rewinds simulation state, not the observability accumulated
   about it. *)

type checkpoint = {
  ck_values : bool array;
  ck_pending : bool array;
  ck_buckets : int list array;
  ck_need_full : bool;
  ck_cycles : int;
}

let checkpoint t =
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Checkpoint
         (Netlist.name t.nl));
  {
    ck_values = Array.copy t.values;
    ck_pending = Array.copy t.pending;
    ck_buckets = Array.copy t.buckets;
    ck_need_full = t.need_full;
    ck_cycles = t.n_cycles;
  }

let restore t ck =
  Array.blit ck.ck_values 0 t.values 0 (Array.length t.values);
  Array.blit ck.ck_pending 0 t.pending 0 (Array.length t.pending);
  Array.iteri (fun i b -> t.buckets.(i) <- b) ck.ck_buckets;
  t.need_full <- ck.ck_need_full;
  t.n_cycles <- ck.ck_cycles;
  (* Transient epoch state can only be non-empty mid-step; clear it so
     a restore from inside an observer still leaves a clean epoch. *)
  List.iter (fun n -> t.epoch_seen.(n) <- false) t.epoch_touched;
  t.epoch_touched <- [];
  t.in_epoch <- false;
  (* Cause links must not leap across the rewind. *)
  if Array.length t.ev_last > 0 then
    Array.fill t.ev_last 0 (Array.length t.ev_last) Obs.Event.no_cause

let checkpoint_cycle ck = ck.ck_cycles

let by_count_desc (la, a) (lb, b) =
  if a <> b then compare b a else compare la lb

let cell_activity t =
  if not t.profiling then []
  else begin
    let labels = net_labels t in
    let acc = ref [] in
    Array.iteri
      (fun ci c ->
        if c > 0 then begin
          let cell = t.order.(ci) in
          acc :=
            ( Printf.sprintf "%s:%s"
                labels.(cell.Netlist.out)
                (Cell.name cell.Netlist.kind),
              c )
            :: !acc
        end)
      t.eval_counts;
    List.sort by_count_desc !acc
  end

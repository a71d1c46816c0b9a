(* Word-parallel gate-level simulator: every net carries [lanes]
   independent two-valued simulations packed into native ints, so one
   bitwise word op per gate advances all lanes at once (the Hardcaml
   trick, applied to multi-scenario regression instead of wide buses).

   Packing invariant: bits of inactive lanes (beyond [lanes] in the last
   word) are always 0.  The non-inverting gates preserve that on their
   own; Not/Nand/Nor mask their result back to the active lanes, and
   Mux2 is computed as (a & s) | (b & ~s) whose operands are masked.

   Scheduling (topological order, levels, fanout, dirty buckets, the
   change epoch) is byte-for-byte the [Nl_sim] machinery via
   [Nl_sim.Sched]; a cell is dirty when any lane of any input moved. *)

(* Global activity counters (see Metrics.Perf). *)
let ctr_evals = Perf.counter "nl_wsim.gate_evals"
let ctr_skipped = Perf.counter "nl_wsim.cells_skipped"
let ctr_full = Perf.counter "nl_wsim.full_settles"

type mode = Event_driven | Full_eval

(* Lanes per machine word: all representable bits of an OCaml int,
   including the sign bit (only bitwise ops ever touch lane words). *)
let lane_bits = Sys.int_size

type t = {
  nl : Netlist.t;
  mode : mode;
  lanes : int;
  nw : int;  (* words per net *)
  word_mask : int array;  (* per word: active-lane bits *)
  values : int array;  (* net [n], word [w] at [n*nw + w] *)
  order : Netlist.cell array;
  dffs : Netlist.cell array;
  in_nets : (string, Netlist.net array) Hashtbl.t;
  out_nets : (string, Netlist.net array) Hashtbl.t;
  level : int array;
  fanout : int array array;
  buckets : int list array;
  pending : bool array;
  mutable need_full : bool;
  (* Change epoch (see Nl_sim), open only while some lane has a
     subscriber: [epoch_pre] holds each touched net's pre-edge words
     ([Full_eval] snapshots every net into it). *)
  epoch_pre : int array;
  epoch_seen : bool array;
  mutable epoch_touched : int list;
  mutable in_epoch : bool;
  dff_buf : int array;  (* dff sampling buffer, [dffs * nw] *)
  mutable n_cycles : int;
  mutable n_evals : int;
  mutable n_skipped : int;
  mutable n_full_settles : int;
  (* Per-lane stuck-at forces, indexed like [values]: a written word
     becomes (x & ~f_mask) | f_val.  [ [||] ] until the first
     injection, so fault-free runs pay one branch per write. *)
  mutable has_faults : bool;
  mutable f_mask : int array;
  mutable f_val : int array;
  mutable n_faults : int;
  (* Observation tap subscribers per lane, in subscription order (see
     Cover.Tap), and per word the lanes that have any. *)
  subs : Cover.Tap.t list array;
  sub_mask : int array;
  (* Per-net labels for subscribers and events; [ [||] ] until first
     needed. *)
  mutable labels : string array;
  (* Causal event emission (see Obs.Event); [ev_last.(n)] is the seq of
     the newest change event on net [n], the cause fed to readers.
     [ [||] ] until [enable_events], so silent runs pay one branch per
     changed net.  [ev_ctx]/[ev_ctx_stim] classify drive_net_word
     writes: stimulus by default, dff-commit with a pre-sampled cause
     during the clock edge. *)
  mutable ev_on : bool;
  mutable ev_last : int array;
  mutable ev_ctx : int;
  mutable ev_ctx_stim : bool;
}

let create ?(mode = Event_driven) ~lanes nl =
  if lanes < 1 then invalid_arg "Nl_wsim.create: lanes must be >= 1";
  let { Nl_sim.Sched.order; dffs; level; fanout; n_levels; in_nets; out_nets }
      =
    Nl_sim.Sched.build nl
  in
  let nw = (lanes + lane_bits - 1) / lane_bits in
  let word_mask =
    Array.init nw (fun w ->
        let k = min lane_bits (lanes - (w * lane_bits)) in
        if k = lane_bits then -1 else (1 lsl k) - 1)
  in
  let n_nets = Netlist.net_count nl in
  {
    nl;
    mode;
    lanes;
    nw;
    word_mask;
    values = Array.make (n_nets * nw) 0;
    order;
    dffs;
    in_nets;
    out_nets;
    level;
    fanout;
    buckets = Array.make n_levels [];
    pending = Array.make (Array.length order) false;
    need_full = true;
    epoch_pre = Array.make (n_nets * nw) 0;
    epoch_seen = Array.make n_nets false;
    epoch_touched = [];
    in_epoch = false;
    dff_buf = Array.make (Array.length dffs * nw) 0;
    n_cycles = 0;
    n_evals = 0;
    n_skipped = 0;
    n_full_settles = 0;
    has_faults = false;
    f_mask = [||];
    f_val = [||];
    n_faults = 0;
    subs = Array.make lanes [];
    sub_mask = Array.make nw 0;
    labels = [||];
    ev_on = false;
    ev_last = [||];
    ev_ctx = Obs.Event.no_cause;
    ev_ctx_stim = true;
  }

let net_labels t =
  if Array.length t.labels = 0 then t.labels <- Nl_sim.Sched.net_labels t.nl;
  t.labels

let enable_events t =
  if not t.ev_on then begin
    if Array.length t.ev_last = 0 then
      t.ev_last <- Array.make (Netlist.net_count t.nl) Obs.Event.no_cause;
    t.ev_on <- true;
    if not (Obs.Event.enabled ()) then Obs.Event.enable ()
  end

let emitting t = t.ev_on && Obs.Event.enabled ()

(* Newest change among a cell's input nets — the cause of its output
   moving. *)
let ev_cell_cause t (c : Netlist.cell) =
  let best = ref Obs.Event.no_cause in
  Array.iter
    (fun n ->
      let s = t.ev_last.(n) in
      if s > !best then best := s)
    c.ins;
  !best

(* Record a change event on net [n]; value is the lane-0 bit, lane -1
   marks the event as an aggregate over all packed lanes. *)
let ev_net t n kind cause =
  let value = t.values.(n * t.nw) land 1 in
  let seq =
    Obs.Event.emit ~cycle:t.n_cycles ~value ~cause kind (net_labels t).(n)
  in
  t.ev_last.(n) <- seq

let schedule t ci =
  if not t.pending.(ci) then begin
    t.pending.(ci) <- true;
    let l = t.level.(ci) in
    t.buckets.(l) <- ci :: t.buckets.(l)
  end

let record_epoch t n =
  if t.in_epoch && not t.epoch_seen.(n) then begin
    t.epoch_seen.(n) <- true;
    Array.blit t.values (n * t.nw) t.epoch_pre (n * t.nw) t.nw;
    t.epoch_touched <- n :: t.epoch_touched
  end

let apply_fault t idx x = x land lnot t.f_mask.(idx) lor t.f_val.(idx)

(* One word of one gate, all lanes at once. *)
let eval_word t (c : Netlist.cell) w =
  let v = t.values and nw = t.nw in
  let inp i = Array.unsafe_get v ((Array.unsafe_get c.ins i * nw) + w) in
  match c.kind with
  | Cell.Const0 -> 0
  | Const1 -> t.word_mask.(w)
  | Buf -> inp 0
  | Not -> lnot (inp 0) land t.word_mask.(w)
  | And2 -> inp 0 land inp 1
  | Or2 -> inp 0 lor inp 1
  | Xor2 -> inp 0 lxor inp 1
  | Nand2 -> lnot (inp 0 land inp 1) land t.word_mask.(w)
  | Nor2 -> lnot (inp 0 lor inp 1) land t.word_mask.(w)
  | Mux2 ->
      let s = inp 0 in
      inp 1 land s lor (inp 2 land lnot s)
  | Dff -> v.((c.out * nw) + w)

(* Evaluate a cell, writing only moved words; true if any lane changed.
   The epoch snapshot is taken before the first write to the net. *)
let eval_cell_changed t (c : Netlist.cell) =
  let v = t.values and nw = t.nw in
  let base = c.out * nw in
  let changed = ref false in
  for w = 0 to nw - 1 do
    let x = eval_word t c w in
    let x = if t.has_faults then apply_fault t (base + w) x else x in
    if v.(base + w) <> x then begin
      if not !changed then begin
        record_epoch t c.out;
        changed := true
      end;
      v.(base + w) <- x
    end
  done;
  if !changed && emitting t then
    ev_net t c.out Obs.Event.Net_change (ev_cell_cause t c);
  !changed

let settle_full t =
  let v = t.values and nw = t.nw in
  Array.iter
    (fun (c : Netlist.cell) ->
      let base = c.out * nw in
      for w = 0 to nw - 1 do
        let x = eval_word t c w in
        v.(base + w) <-
          (if t.has_faults then apply_fault t (base + w) x else x)
      done)
    t.order;
  t.n_evals <- t.n_evals + Array.length t.order;
  t.n_full_settles <- t.n_full_settles + 1;
  Perf.incr ~by:(Array.length t.order) ctr_evals

let settle_event t =
  if t.need_full then begin
    t.need_full <- false;
    Array.iter (fun c -> ignore (eval_cell_changed t c)) t.order;
    t.n_evals <- t.n_evals + Array.length t.order;
    t.n_full_settles <- t.n_full_settles + 1;
    Perf.incr ~by:(Array.length t.order) ctr_evals;
    Perf.incr ctr_full;
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
            incr evals;
            if eval_cell_changed t c then
              Array.iter (fun cj -> schedule t cj) t.fanout.(c.Netlist.out);
            drain ()
      in
      drain ()
    done;
    t.n_evals <- t.n_evals + !evals;
    Perf.incr ~by:!evals ctr_evals;
    let skipped = Array.length t.order - !evals in
    t.n_skipped <- t.n_skipped + skipped;
    Perf.incr ~by:skipped ctr_skipped
  end

let settle t =
  match t.mode with Full_eval -> settle_full t | Event_driven -> settle_event t

(* Write one word of a net; wakes combinational readers in event mode. *)
let drive_net_word t n w x =
  let idx = (n * t.nw) + w in
  let x = if t.has_faults then apply_fault t idx x else x in
  if t.values.(idx) <> x then begin
    record_epoch t n;
    t.values.(idx) <- x;
    (match t.mode with
    | Event_driven -> Array.iter (fun ci -> schedule t ci) t.fanout.(n)
    | Full_eval -> ());
    if emitting t then
      ev_net t n
        (if t.ev_ctx_stim then Obs.Event.Stimulus else Obs.Event.Net_change)
        t.ev_ctx
  end

let port_nets tbl name =
  match Hashtbl.find_opt tbl name with
  | Some nets -> nets
  | None -> raise Not_found

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg
      (Printf.sprintf "Nl_wsim: lane %d out of range (%d lanes)" lane t.lanes)

let check_width name bv nets =
  if Bitvec.width bv <> Array.length nets then
    invalid_arg
      (Printf.sprintf "Nl_wsim.set_input %s: width %d expected %d" name
         (Bitvec.width bv) (Array.length nets))

(* Broadcast: every lane sees the same value. *)
let set_input t name bv =
  let nets = port_nets t.in_nets name in
  check_width name bv nets;
  Array.iteri
    (fun i n ->
      let word = if Bitvec.get bv i then -1 else 0 in
      for w = 0 to t.nw - 1 do
        drive_net_word t n w (word land t.word_mask.(w))
      done)
    nets

let set_input_int t name v =
  let nets = port_nets t.in_nets name in
  Array.iteri
    (fun i n ->
      let word = if (v asr min i 62) land 1 = 1 then -1 else 0 in
      for w = 0 to t.nw - 1 do
        drive_net_word t n w (word land t.word_mask.(w))
      done)
    nets

let set_input_lane t ~lane name bv =
  check_lane t lane;
  let nets = port_nets t.in_nets name in
  check_width name bv nets;
  let w = lane / lane_bits and bit = 1 lsl (lane mod lane_bits) in
  Array.iteri
    (fun i n ->
      let cur = t.values.((n * t.nw) + w) in
      let x = if Bitvec.get bv i then cur lor bit else cur land lnot bit in
      drive_net_word t n w x)
    nets

(* Per-lane stimulus for a whole port at once: [cols.(i)] holds bit [i]
   of every lane (width [lanes]) — the output of {!Bitvec.transpose}
   applied to per-lane port values. *)
let set_input_packed t name cols =
  let nets = port_nets t.in_nets name in
  if Array.length cols <> Array.length nets then
    invalid_arg
      (Printf.sprintf "Nl_wsim.set_input_packed %s: %d columns expected %d"
         name (Array.length cols) (Array.length nets));
  Array.iteri
    (fun i n ->
      let col = cols.(i) in
      if Bitvec.width col <> t.lanes then
        invalid_arg
          (Printf.sprintf
             "Nl_wsim.set_input_packed %s: column width %d expected %d lanes"
             name (Bitvec.width col) t.lanes);
      for w = 0 to t.nw - 1 do
        let lo = w * lane_bits in
        let hi = min t.lanes (lo + lane_bits) - 1 in
        let x = ref 0 in
        for b = hi downto lo do
          x := (!x lsl 1) lor (if Bitvec.get col b then 1 else 0)
        done;
        drive_net_word t n w !x
      done)
    nets

let read_lane_bit t n lane =
  t.values.((n * t.nw) + (lane / lane_bits)) lsr (lane mod lane_bits) land 1
  = 1

let get_output ?(lane = 0) t name =
  check_lane t lane;
  let nets = port_nets t.out_nets name in
  Bitvec.init (Array.length nets) (fun i -> read_lane_bit t nets.(i) lane)

let get_output_int ?lane t name = Bitvec.to_int (get_output ?lane t name)

let get_output_packed t name =
  let nets = port_nets t.out_nets name in
  Array.map (fun n -> Bitvec.init t.lanes (read_lane_bit t n)) nets

(* Lanes whose value on [port] differs from the golden lane 0 —
   computed on the packed words, one xor per word per bit of the port. *)
let diverging_lanes t name =
  let nets = port_nets t.out_nets name in
  let diff = Array.make t.nw 0 in
  Array.iter
    (fun n ->
      let base = n * t.nw in
      let expect = if t.values.(base) land 1 = 1 then -1 else 0 in
      for w = 0 to t.nw - 1 do
        diff.(w) <-
          diff.(w)
          lor ((t.values.(base + w) lxor expect) land t.word_mask.(w))
      done)
    nets;
  let acc = ref [] in
  for w = t.nw - 1 downto 0 do
    let d = diff.(w) in
    if d <> 0 then
      for b = lane_bits - 1 downto 0 do
        if (d lsr b) land 1 = 1 then acc := (w * lane_bits) + b :: !acc
      done
  done;
  !acc

(* Report net [n] to the subscribers of every observed lane where it
   moved against its pre-edge words. *)
let notify t n =
  let base = n * t.nw in
  for w = 0 to t.nw - 1 do
    let now = t.values.(base + w) in
    let ch = ref ((t.epoch_pre.(base + w) lxor now) land t.sub_mask.(w)) in
    let b = ref 0 in
    while !ch <> 0 do
      if !ch land 1 = 1 then begin
        let rising = (now lsr !b) land 1 = 1 in
        Cover.Tap.change_all t.subs.((w * lane_bits) + !b) n ~rising
      end;
      ch := !ch lsr 1;
      incr b
    done
  done

let end_cycle t =
  Array.iter Cover.Tap.cycle_end_all t.subs;
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Cover_epoch
         (Netlist.name t.nl))

let sample_dffs t =
  let nw = t.nw in
  Array.iteri
    (fun i (c : Netlist.cell) ->
      Array.blit t.values (c.ins.(0) * nw) t.dff_buf (i * nw) nw)
    t.dffs

let observed t = Array.exists (fun m -> m <> 0) t.sub_mask

let step_full t =
  settle_full t;
  let observed = observed t in
  if observed then
    Array.blit t.values 0 t.epoch_pre 0 (Array.length t.values);
  sample_dffs t;
  let nw = t.nw in
  Array.iteri
    (fun i (c : Netlist.cell) ->
      let base = c.out * nw in
      for w = 0 to nw - 1 do
        let x = t.dff_buf.((i * nw) + w) in
        t.values.(base + w) <-
          (if t.has_faults then apply_fault t (base + w) x else x)
      done)
    t.dffs;
  t.n_evals <- t.n_evals + Array.length t.dffs;
  Perf.incr ~by:(Array.length t.dffs) ctr_evals;
  t.n_cycles <- t.n_cycles + 1;
  settle_full t;
  if observed then begin
    for n = 0 to Netlist.net_count t.nl - 1 do
      notify t n
    done;
    end_cycle t
  end

let step_event t =
  settle_event t;
  t.in_epoch <- observed t;
  sample_dffs t;
  let nw = t.nw in
  if emitting t then begin
    (* Causes pre-sampled before any commit so every flip-flop is
       attributed to the change that moved its D input pre-edge, not to
       a sibling's fresh commit. *)
    let causes =
      Array.map (fun (c : Netlist.cell) -> t.ev_last.(c.ins.(0))) t.dffs
    in
    t.ev_ctx_stim <- false;
    Array.iteri
      (fun i (c : Netlist.cell) ->
        t.ev_ctx <- causes.(i);
        for w = 0 to nw - 1 do
          drive_net_word t c.out w t.dff_buf.((i * nw) + w)
        done)
      t.dffs;
    t.ev_ctx_stim <- true;
    t.ev_ctx <- Obs.Event.no_cause
  end
  else
    Array.iteri
      (fun i (c : Netlist.cell) ->
        for w = 0 to nw - 1 do
          drive_net_word t c.out w t.dff_buf.((i * nw) + w)
        done)
      t.dffs;
  t.n_evals <- t.n_evals + Array.length t.dffs;
  Perf.incr ~by:(Array.length t.dffs) ctr_evals;
  t.n_cycles <- t.n_cycles + 1;
  settle_event t;
  if t.in_epoch then begin
    List.iter
      (fun n ->
        notify t n;
        t.epoch_seen.(n) <- false)
      t.epoch_touched;
    t.epoch_touched <- [];
    t.in_epoch <- false;
    end_cycle t
  end

let step t =
  match t.mode with Full_eval -> step_full t | Event_driven -> step_event t

let run t n =
  for _ = 1 to n do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let inject_stuck_at t ~lane ~net ~value =
  check_lane t lane;
  if net < 0 || net >= Netlist.net_count t.nl then
    invalid_arg
      (Printf.sprintf "Nl_wsim.inject_stuck_at: net %d out of range" net);
  if not t.has_faults then begin
    t.f_mask <- Array.make (Array.length t.values) 0;
    t.f_val <- Array.make (Array.length t.values) 0;
    t.has_faults <- true
  end;
  let idx = (net * t.nw) + (lane / lane_bits) in
  let bit = 1 lsl (lane mod lane_bits) in
  t.f_mask.(idx) <- t.f_mask.(idx) lor bit;
  t.f_val.(idx) <-
    (if value then t.f_val.(idx) lor bit else t.f_val.(idx) land lnot bit);
  t.n_faults <- t.n_faults + 1;
  (* Apply immediately, so faults on input and flip-flop nets (which no
     combinational evaluation rewrites) take effect from the next
     settle; downstream logic is rescheduled. *)
  let x = apply_fault t idx t.values.(idx) in
  if t.values.(idx) <> x then begin
    t.values.(idx) <- x;
    match t.mode with
    | Event_driven -> Array.iter (fun ci -> schedule t ci) t.fanout.(net)
    | Full_eval -> ()
  end;
  if emitting t then begin
    let seq =
      Obs.Event.emit ~cycle:t.n_cycles ~lane ~value:(Bool.to_int value)
        ~cause:t.ev_last.(net) Obs.Event.Fault (net_labels t).(net)
    in
    t.ev_last.(net) <- seq
  end

let faults t = t.n_faults

(* ------------------------------------------------------------------ *)
(* Observation tap                                                     *)

let observe t ~lane f =
  check_lane t lane;
  t.subs.(lane) <- t.subs.(lane) @ [ f (net_labels t) ];
  let w = lane / lane_bits in
  t.sub_mask.(w) <- t.sub_mask.(w) lor (1 lsl (lane mod lane_bits))

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)

type checkpoint = {
  ck_values : int array;
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
  (* Mid-epoch transients never survive a step, so a rewind simply
     clears them. *)
  List.iter (fun n -> t.epoch_seen.(n) <- false) t.epoch_touched;
  t.epoch_touched <- [];
  t.in_epoch <- false;
  (* Cause links must not leap across the rewind: events emitted after
     the restore start a fresh causal history. *)
  if Array.length t.ev_last > 0 then
    Array.fill t.ev_last 0 (Array.length t.ev_last) Obs.Event.no_cause

let checkpoint_cycle ck = ck.ck_cycles

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let lanes t = t.lanes
let netlist t = t.nl
let cycles t = t.n_cycles
let gate_evals t = t.n_evals
let cells_skipped t = t.n_skipped
let comb_cells t = Array.length t.order
let dff_cells t = Array.length t.dffs
let full_settles t = t.n_full_settles

(* Gate-level simulator: every net carries [lanes] independent two-valued
   simulations packed into native ints, so one bitwise word op per gate
   advances all lanes at once (the Hardcaml trick, applied to
   multi-scenario regression instead of wide buses).  A scalar
   simulation is the 1-lane instance.

   Packing invariant: bits of inactive lanes (beyond [lanes] in the last
   word) are always 0.  The non-inverting gates preserve that on their
   own; Not/Nand/Nor mask their result back to the active lanes, and
   Mux2 is computed as (a & s) | (b & ~s) whose operands are masked. *)

(* Global activity counters (see Metrics.Perf); one evaluation advances
   every lane. *)
let ctr_evals = Perf.counter "nl_sim.gate_evals"
let ctr_skipped = Perf.counter "nl_sim.cells_skipped"
let ctr_full = Perf.counter "nl_sim.full_settles"

(* Distributions per settle/step (see Obs.Hist; off unless enabled),
   recorded by 1-lane instances only. *)
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

(* Lanes per machine word: all representable bits of an OCaml int,
   including the sign bit (only bitwise ops ever touch lane words). *)
let lane_bits = Sys.int_size

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

  let topo_order nl =
    let comb =
      List.filter (fun c -> c.Netlist.kind <> Cell.Dff) (Netlist.cells nl)
    in
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

  let build nl =
    Netlist.check nl;
    let table ports =
      let h = Hashtbl.create 8 in
      List.iter (fun (n, nets) -> Hashtbl.replace h n nets) ports;
      h
    in
    let order = topo_order nl in
    let n_nets = Netlist.net_count nl in
    (* Levelization: primary inputs, constants-free nets and flip-flop
       outputs sit at depth 0; each cell one past its deepest input. *)
    let net_level = Array.make n_nets 0 in
    let level = Array.make (Array.length order) 0 in
    let n_levels = ref 1 in
    Array.iteri
      (fun ci (c : Netlist.cell) ->
        let l =
          Array.fold_left (fun acc n -> max acc (net_level.(n) + 1)) 0 c.ins
        in
        level.(ci) <- l;
        net_level.(c.out) <- l;
        n_levels := max !n_levels (l + 1))
      order;
    (* Per-net fanout lists (combinational readers only, ascending),
       count-then-fill from the back. *)
    let fan_count = Array.make n_nets 0 in
    Array.iter
      (fun (c : Netlist.cell) ->
        Array.iter (fun n -> fan_count.(n) <- fan_count.(n) + 1) c.ins)
      order;
    let fanout = Array.init n_nets (fun n -> Array.make fan_count.(n) 0) in
    for ci = Array.length order - 1 downto 0 do
      Array.iter
        (fun n ->
          fan_count.(n) <- fan_count.(n) - 1;
          fanout.(n).(fan_count.(n)) <- ci)
        order.(ci).ins
    done;
    {
      order;
      dffs =
        Array.of_list
          (List.filter (fun c -> c.Netlist.kind = Cell.Dff) (Netlist.cells nl));
      level;
      fanout;
      n_levels = !n_levels;
      in_nets = table (Netlist.inputs nl);
      out_nets = table (Netlist.outputs nl);
    }

  let net_labels nl =
    let labels = Array.make (Netlist.net_count nl) "" in
    List.iter
      (fun (name, nets) ->
        if Array.length nets = 1 then labels.(nets.(0)) <- name
        else
          Array.iteri
            (fun i n -> labels.(n) <- Printf.sprintf "%s[%d]" name i)
            nets)
      (Netlist.inputs nl @ Netlist.outputs nl);
    Array.mapi
      (fun n l -> if l = "" then Netlist.describe_net nl n else l)
      labels
end

type t = {
  nl : Netlist.t;
  mode : mode;
  lanes : int;
  nw : int;  (* words per net *)
  word_mask : int array;  (* per word: active-lane bits *)
  values : int array;  (* net [n], word [w] at [n*nw + w] *)
  s : Sched.t;
  (* Event-driven machinery.  A cell's level is strictly greater than
     the level of any combinational cell driving one of its inputs, so
     one ascending sweep over the level stacks settles the dirty
     region.  Level [l] stacks its pending cell indices in
     [queue.(lvl_base.(l)) ..] ([lvl_fill.(l)] of them) and drains
     them newest first. *)
  lvl_base : int array;
  lvl_fill : int array;
  queue : int array;
  pending : bool array;  (* per index into [order]: already queued *)
  mutable need_full : bool;  (* next settle evaluates everything *)
  (* Change epoch (clock edge + post-edge settle), open only while a
     subscriber or the [nets_touched_per_step] histogram listens: the
     words each touched net had when the epoch opened, recorded at its
     first change ([Full_eval] snapshots every net instead), and the
     touched nets in order.  Bit-identical to a full snapshot/compare
     because inputs never move during the epoch. *)
  epoch_pre : int array;
  epoch_seen : bool array;
  touched : int array;
  mutable n_touched : int;
  mutable in_epoch : bool;
  dff_buf : int array;  (* flip-flop sampling buffer, [dffs * nw] *)
  mutable n_cycles : int;
  mutable n_evals : int;
  mutable n_skipped : int;
  mutable n_full_settles : int;
  (* Optional per-cell evaluation profile (indexed like [order]). *)
  mutable profiling : bool;
  mutable eval_counts : int array;
  (* Per-lane stuck-at forces, indexed like [values]: a written word
     becomes (x & ~f_mask) | f_val.  [ [||] ] until the first
     injection, so fault-free runs pay one branch per write. *)
  mutable has_faults : bool;
  mutable f_mask : int array;
  mutable f_val : int array;
  mutable n_faults : int;
  (* Observation tap subscribers per lane, in subscription order (see
     Cover.Tap), per word the lanes that have any, and the collector
     [enable_toggle_cover] subscribed. *)
  subs : Cover.Tap.t list array;
  sub_mask : int array;
  mutable observed : bool;
  mutable toggle : Cover.Toggle.t option;
  mutable labels : string array;  (* [ [||] ] until first needed *)
  (* Causal event emission (see Obs.Event), allocated by
     [enable_events]: [ev_last.(n)] is the seq of net [n]'s latest
     change event, so a cell evaluation that moves its output is caused
     by the latest change among its input nets.  [ev_ctx]/[ev_ctx_stim]
     classify [drive_word] writes: stimulus by default, flip-flop
     commit with a pre-sampled cause during the clock edge. *)
  mutable ev_on : bool;
  mutable ev_last : int array;
  mutable ev_ctx : int;
  mutable ev_ctx_stim : bool;
}

let create ?(mode = Event_driven) ?(lanes = 1) nl =
  if lanes < 1 then invalid_arg "Nl_sim.create: lanes must be >= 1";
  let s = Sched.build nl in
  let nw = (lanes + lane_bits - 1) / lane_bits in
  let n_nets = Netlist.net_count nl and n_comb = Array.length s.order in
  (* Level [l]'s stack starts past the cells of every lower level. *)
  let lvl_base = Array.make (s.n_levels + 1) 0 in
  Array.iter (fun l -> lvl_base.(l + 1) <- lvl_base.(l + 1) + 1) s.level;
  for l = 1 to s.n_levels do
    lvl_base.(l) <- lvl_base.(l) + lvl_base.(l - 1)
  done;
  {
    nl;
    mode;
    lanes;
    nw;
    word_mask =
      Array.init nw (fun w ->
          let k = min lane_bits (lanes - (w * lane_bits)) in
          if k = lane_bits then -1 else (1 lsl k) - 1);
    values = Array.make (n_nets * nw) 0;
    s;
    lvl_base;
    lvl_fill = Array.make s.n_levels 0;
    queue = Array.make n_comb 0;
    pending = Array.make n_comb false;
    need_full = true;
    epoch_pre = Array.make (n_nets * nw) 0;
    epoch_seen = Array.make n_nets false;
    touched = Array.make n_nets 0;
    n_touched = 0;
    in_epoch = false;
    dff_buf = Array.make (Array.length s.dffs * nw) 0;
    n_cycles = 0;
    n_evals = 0;
    n_skipped = 0;
    n_full_settles = 0;
    profiling = false;
    eval_counts = [||];
    has_faults = false;
    f_mask = [||];
    f_val = [||];
    n_faults = 0;
    subs = Array.make lanes [];
    sub_mask = Array.make nw 0;
    observed = false;
    toggle = None;
    labels = [||];
    ev_on = false;
    ev_last = [||];
    ev_ctx = Obs.Event.no_cause;
    ev_ctx_stim = true;
  }

let net_labels t =
  if Array.length t.labels = 0 then t.labels <- Sched.net_labels t.nl;
  t.labels

(* ------------------------------------------------------------------ *)
(* Causal events                                                       *)

let enable_events t =
  if Array.length t.ev_last = 0 then
    t.ev_last <- Array.make (Netlist.net_count t.nl) Obs.Event.no_cause;
  t.ev_on <- true;
  if not (Obs.Event.enabled ()) then Obs.Event.enable ()

let emitting t = t.ev_on && Obs.Event.enabled ()

(* A cell evaluation is caused by the latest change among its inputs. *)
let ev_cell_cause t (c : Netlist.cell) =
  Array.fold_left
    (fun best n -> Int.max best t.ev_last.(n))
    Obs.Event.no_cause c.ins

(* A change event on net [n], valued by its lane-0 bit. *)
let ev_net t n kind cause =
  t.ev_last.(n) <-
    Obs.Event.emit ~cycle:t.n_cycles ~value:(t.values.(n * t.nw) land 1)
      ~cause kind (net_labels t).(n)

(* ------------------------------------------------------------------ *)
(* Scheduling and writes                                               *)

let schedule t ci =
  if not (Array.unsafe_get t.pending ci) then begin
    t.pending.(ci) <- true;
    let l = t.s.level.(ci) in
    t.queue.(t.lvl_base.(l) + t.lvl_fill.(l)) <- ci;
    t.lvl_fill.(l) <- t.lvl_fill.(l) + 1
  end

(* Queue the combinational readers of net [n]. *)
let wake t n =
  let f = t.s.fanout.(n) in
  for i = 0 to Array.length f - 1 do
    schedule t (Array.unsafe_get f i)
  done

let record_epoch t n =
  if t.in_epoch && not t.epoch_seen.(n) then begin
    t.epoch_seen.(n) <- true;
    let b = n * t.nw in
    for i = b to b + t.nw - 1 do
      t.epoch_pre.(i) <- t.values.(i)
    done;
    t.touched.(t.n_touched) <- n;
    t.n_touched <- t.n_touched + 1
  end

let apply_fault t idx x = x land lnot t.f_mask.(idx) lor t.f_val.(idx)

(* Write word [w] of net [n].  In event-driven mode a moved word opens
   the net's epoch entry, wakes its readers and is logged; [Full_eval]
   just writes (it has no epoch entries and records no causality). *)
let drive_word t n w x =
  let idx = (n * t.nw) + w in
  let x = if t.has_faults then apply_fault t idx x else x in
  if Array.unsafe_get t.values idx <> x then begin
    record_epoch t n;
    t.values.(idx) <- x;
    match t.mode with
    | Full_eval -> ()
    | Event_driven ->
        wake t n;
        if emitting t then
          ev_net t n
            (if t.ev_ctx_stim then Obs.Event.Stimulus
             else Obs.Event.Net_change)
            t.ev_ctx
  end

(* Every lane of net [n] to [b]. *)
let drive_bit t n b =
  let word = if b then -1 else 0 in
  for w = 0 to t.nw - 1 do
    drive_word t n w (word land t.word_mask.(w))
  done

let[@inline] rd v nw w n = Array.unsafe_get v ((n * nw) + w)

(* One word of one gate, all its lanes at once. *)
let[@inline] eval_word v nw w mask (c : Netlist.cell) =
  let i = c.ins in
  match c.kind with
  | Cell.Const0 -> 0
  | Const1 -> mask
  | Buf -> rd v nw w i.(0)
  | Not -> lnot (rd v nw w i.(0)) land mask
  | And2 -> rd v nw w i.(0) land rd v nw w i.(1)
  | Or2 -> rd v nw w i.(0) lor rd v nw w i.(1)
  | Xor2 -> rd v nw w i.(0) lxor rd v nw w i.(1)
  | Nand2 -> lnot (rd v nw w i.(0) land rd v nw w i.(1)) land mask
  | Nor2 -> lnot (rd v nw w i.(0) lor rd v nw w i.(1)) land mask
  | Mux2 ->
      let s = rd v nw w i.(0) in
      rd v nw w i.(1) land s lor (rd v nw w i.(2) land lnot s)
  | Dff -> rd v nw w c.out

(* Evaluate cell [ci], writing only moved words; true if any lane
   moved.  The epoch entry is recorded before the first write. *)
let eval_cell t ci =
  let c = Array.unsafe_get t.s.order ci in
  let v = t.values and nw = t.nw in
  let base = c.out * nw in
  let changed = ref false in
  for w = 0 to nw - 1 do
    let x = eval_word v nw w (Array.unsafe_get t.word_mask w) c in
    let x = if t.has_faults then apply_fault t (base + w) x else x in
    if Array.unsafe_get v (base + w) <> x then begin
      if not !changed then record_epoch t c.out;
      changed := true;
      v.(base + w) <- x
    end
  done;
  if t.profiling then t.eval_counts.(ci) <- t.eval_counts.(ci) + 1;
  if !changed && emitting t then
    ev_net t c.out Obs.Event.Net_change (ev_cell_cause t c);
  !changed

let hist_on t = t.lanes = 1 && Obs.Hist.enabled ()

let count_evals t n =
  t.n_evals <- t.n_evals + n;
  Perf.add ctr_evals n

let settled t evals =
  count_evals t evals;
  if hist_on t then Obs.Hist.observe_int hist_evals evals

(* ------------------------------------------------------------------ *)
(* Settle and step                                                     *)

let settle_full t =
  let v = t.values and nw = t.nw and order = t.s.order in
  (* One fault-free word: the scalar reference's loop, kept tight. *)
  let single = nw = 1 && not t.has_faults in
  for ci = 0 to Array.length order - 1 do
    let c = Array.unsafe_get order ci in
    if single then v.(c.out) <- eval_word v 1 0 t.word_mask.(0) c
    else begin
      let base = c.out * nw in
      for w = 0 to nw - 1 do
        let x = eval_word v nw w (Array.unsafe_get t.word_mask w) c in
        v.(base + w) <-
          (if t.has_faults then apply_fault t (base + w) x else x)
      done
    end;
    if t.profiling then t.eval_counts.(ci) <- t.eval_counts.(ci) + 1
  done;
  t.n_full_settles <- t.n_full_settles + 1;
  settled t (Array.length order)

(* One settle in event mode: either a forced full pass (first settle, in
   topological order, epoch recording preserved) or an ascending-level
   sweep of the queued cells.  A cell's fanout lives at strictly higher
   levels, so each level's stack is complete when reached. *)
let settle_event t =
  let n_comb = Array.length t.s.order in
  if t.need_full then begin
    t.need_full <- false;
    for ci = 0 to n_comb - 1 do
      ignore (eval_cell t ci);
      t.pending.(ci) <- false
    done;
    Array.fill t.lvl_fill 0 (Array.length t.lvl_fill) 0;
    t.n_full_settles <- t.n_full_settles + 1;
    Perf.incr ctr_full;
    settled t n_comb
  end
  else begin
    let evals = ref 0 in
    for l = 0 to Array.length t.lvl_fill - 1 do
      let base = t.lvl_base.(l) in
      for i = t.lvl_fill.(l) - 1 downto 0 do
        let ci = t.queue.(base + i) in
        t.pending.(ci) <- false;
        incr evals;
        if eval_cell t ci then wake t t.s.order.(ci).out
      done;
      t.lvl_fill.(l) <- 0
    done;
    settled t !evals;
    t.n_skipped <- t.n_skipped + n_comb - !evals;
    Perf.add ctr_skipped (n_comb - !evals)
  end

let settle_inner t =
  match t.mode with Full_eval -> settle_full t | Event_driven -> settle_event t

let settle t =
  if t.lanes = 1 && Obs.Span.enabled () then
    Obs.Span.with_ ~name:"nl_sim.settle" (fun () ->
        let e0 = t.n_evals in
        settle_inner t;
        Obs.Span.add_attr_int "evals" (t.n_evals - e0))
  else settle_inner t

(* Report net [n] to the subscribers of every observed lane where it
   moved against its pre-edge words. *)
let notify t n =
  let base = n * t.nw in
  for w = 0 to t.nw - 1 do
    let now = t.values.(base + w) in
    let ch = ref ((t.epoch_pre.(base + w) lxor now) land t.sub_mask.(w)) in
    let b = ref 0 in
    while !ch <> 0 do
      if !ch land 1 = 1 then
        Cover.Tap.change_all
          t.subs.((w * lane_bits) + !b)
          n
          ~rising:((now lsr !b) land 1 = 1);
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

(* Sample every D, then commit: flip-flops see the pre-edge values.  A
   commit is caused by the change that last moved its D input, sampled
   before any commit so a sibling's fresh commit never claims it. *)
let commit_dffs t =
  let v = t.values and nw = t.nw and buf = t.dff_buf and dffs = t.s.dffs in
  for i = 0 to Array.length dffs - 1 do
    let d = dffs.(i).ins.(0) * nw in
    for w = 0 to nw - 1 do
      buf.((i * nw) + w) <- v.(d + w)
    done
  done;
  let causes =
    if emitting t then
      Array.map (fun (c : Netlist.cell) -> t.ev_last.(c.ins.(0))) dffs
    else [||]
  in
  t.ev_ctx_stim <- false;
  for i = 0 to Array.length dffs - 1 do
    if Array.length causes > 0 then t.ev_ctx <- causes.(i);
    for w = 0 to nw - 1 do
      drive_word t dffs.(i).out w buf.((i * nw) + w)
    done
  done;
  t.ev_ctx_stim <- true;
  t.ev_ctx <- Obs.Event.no_cause;
  count_evals t (Array.length dffs)

(* Changes are reported once per cycle, against the settled pre-edge
   values.  Event-driven mode flushes pending input changes first, so
   its epoch covers exactly the clock edge and the post-edge settle,
   like the full snapshot [Full_eval] takes. *)
let step_inner t =
  settle_inner t;
  (match t.mode with
  | Full_eval ->
      if t.observed then
        Array.blit t.values 0 t.epoch_pre 0 (Array.length t.values)
  | Event_driven -> t.in_epoch <- t.observed || hist_on t);
  commit_dffs t;
  t.n_cycles <- t.n_cycles + 1;
  settle_inner t;
  if t.in_epoch then begin
    if hist_on t then Obs.Hist.observe_int hist_touched t.n_touched;
    for i = t.n_touched - 1 downto 0 do
      let n = t.touched.(i) in
      if t.observed then notify t n;
      t.epoch_seen.(n) <- false
    done;
    t.n_touched <- 0;
    t.in_epoch <- false
  end
  else if t.observed then
    (* [Full_eval]: every net against the snapshot. *)
    for n = 0 to Netlist.net_count t.nl - 1 do
      notify t n
    done;
  if t.observed then end_cycle t

let step t =
  if t.lanes = 1 && Obs.Span.enabled () then
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

(* ------------------------------------------------------------------ *)
(* Stimulus                                                            *)

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg
      (Printf.sprintf "Nl_sim: lane %d out of range (%d lanes)" lane t.lanes)

let check_width name bv nets =
  if Bitvec.width bv <> Array.length nets then
    invalid_arg
      (Printf.sprintf "Nl_sim.set_input %s: width %d expected %d" name
         (Bitvec.width bv) (Array.length nets))

type port = Netlist.net array

let in_port t name = Hashtbl.find t.s.in_nets name

(* Bit [i] of the two's-complement int [v] ([asr] caps at the sign). *)
let drive_port_int t nets v =
  for i = 0 to Array.length nets - 1 do
    drive_bit t (Array.unsafe_get nets i) ((v asr min i 62) land 1 = 1)
  done

let set_input_int t name v = drive_port_int t (in_port t name) v

let set_input t name bv =
  let nets = in_port t name in
  check_width name bv nets;
  if Array.length nets <= 62 then drive_port_int t nets (Bitvec.to_int bv)
  else Array.iteri (fun i n -> drive_bit t n (Bitvec.get bv i)) nets

let set_input_lane t ~lane name bv =
  check_lane t lane;
  let nets = in_port t name in
  check_width name bv nets;
  let w = lane / lane_bits and bit = 1 lsl (lane mod lane_bits) in
  for i = 0 to Array.length nets - 1 do
    let cur = t.values.((nets.(i) * t.nw) + w) in
    drive_word t nets.(i) w
      (if Bitvec.get bv i then cur lor bit else cur land lnot bit)
  done

let set_input_packed t name cols =
  let nets = in_port t name in
  if Array.length cols <> Array.length nets then
    invalid_arg
      (Printf.sprintf "Nl_sim.set_input_packed %s: %d columns expected %d"
         name (Array.length cols) (Array.length nets));
  Array.iteri
    (fun i n ->
      let col = cols.(i) in
      if Bitvec.width col <> t.lanes then
        invalid_arg
          (Printf.sprintf
             "Nl_sim.set_input_packed %s: column width %d expected %d lanes"
             name (Bitvec.width col) t.lanes);
      for w = 0 to t.nw - 1 do
        let x = ref 0 in
        for b = min t.lanes ((w + 1) * lane_bits) - 1 downto w * lane_bits do
          x := (!x lsl 1) lor Bool.to_int (Bitvec.get col b)
        done;
        drive_word t n w !x
      done)
    nets

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

let lane_bit t n lane =
  t.values.((n * t.nw) + (lane / lane_bits)) lsr (lane mod lane_bits) land 1

let get_output ?(lane = 0) t name =
  check_lane t lane;
  let nets = Hashtbl.find t.s.out_nets name in
  Bitvec.init (Array.length nets) (fun i -> lane_bit t nets.(i) lane = 1)

(* Ports that fit an int are read without a [Bitvec]. *)
let get_output_int ?(lane = 0) t name =
  let nets = Hashtbl.find t.s.out_nets name in
  if Array.length nets > 62 then Bitvec.to_int (get_output ~lane t name)
  else begin
    check_lane t lane;
    let r = ref 0 in
    for i = Array.length nets - 1 downto 0 do
      r := (!r lsl 1) lor lane_bit t nets.(i) lane
    done;
    !r
  end

let get_output_packed t name =
  Array.map
    (fun n -> Bitvec.init t.lanes (fun l -> lane_bit t n l = 1))
    (Hashtbl.find t.s.out_nets name)

(* Lanes whose value on [port] differs from the golden lane 0 —
   computed on the packed words, one xor per word per bit of the port. *)
let diverging_lanes t name =
  let diff = Array.make t.nw 0 in
  Array.iter
    (fun n ->
      let base = n * t.nw in
      let expect = -(t.values.(base) land 1) in
      for w = 0 to t.nw - 1 do
        diff.(w) <-
          diff.(w) lor ((t.values.(base + w) lxor expect) land t.word_mask.(w))
      done)
    (Hashtbl.find t.s.out_nets name);
  let acc = ref [] in
  for w = t.nw - 1 downto 0 do
    if diff.(w) <> 0 then
      for b = lane_bits - 1 downto 0 do
        if (diff.(w) lsr b) land 1 = 1 then acc := (w * lane_bits) + b :: !acc
      done
  done;
  !acc

let net_value t n = lane_bit t n 0 = 1

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

let observe ?(lane = 0) t f =
  check_lane t lane;
  t.subs.(lane) <- t.subs.(lane) @ [ f (net_labels t) ];
  let w = lane / lane_bits in
  t.sub_mask.(w) <- t.sub_mask.(w) lor (1 lsl (lane mod lane_bits));
  t.observed <- true

let enable_toggle_cover t =
  if t.toggle = None then
    observe t (fun names ->
        let c = Cover.Toggle.create ~names in
        t.toggle <- Some c;
        Cover.Toggle.tap c)

let toggle_cover t = t.toggle

(* ------------------------------------------------------------------ *)
(* Activity profiling                                                  *)

let enable_profile t =
  if not t.profiling then begin
    t.profiling <- true;
    t.eval_counts <- Array.make (Array.length t.s.order) 0
  end

let profiling t = t.profiling

let by_count_desc (la, a) (lb, b) =
  if a <> b then compare b a else compare la lb

let cell_activity t =
  if not t.profiling then []
  else begin
    let labels = net_labels t in
    let acc = ref [] in
    Array.iteri
      (fun ci n ->
        if n > 0 then
          let c = t.s.order.(ci) in
          acc :=
            (Printf.sprintf "%s:%s" labels.(c.out) (Cell.name c.kind), n)
            :: !acc)
      t.eval_counts;
    List.sort by_count_desc !acc
  end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let inject_stuck_at t ~lane ~net ~value =
  check_lane t lane;
  if net < 0 || net >= Netlist.net_count t.nl then
    invalid_arg
      (Printf.sprintf "Nl_sim.inject_stuck_at: net %d out of range" net);
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
    match t.mode with Event_driven -> wake t net | Full_eval -> ()
  end;
  if emitting t then
    t.ev_last.(net) <-
      Obs.Event.emit ~cycle:t.n_cycles ~lane ~value:(Bool.to_int value)
        ~cause:t.ev_last.(net) Obs.Event.Fault (net_labels t).(net)

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore: net values plus the event-driven scheduler
   state and the cycle count.  Subscribers, profiles and fault forces
   are deliberately not captured — a restore rewinds simulation state,
   not the observability accumulated about it. *)

type checkpoint = {
  ck_values : int array;
  ck_pending : bool array;
  ck_fill : int array;
  ck_queue : int array;
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
    ck_fill = Array.copy t.lvl_fill;
    ck_queue = Array.copy t.queue;
    ck_need_full = t.need_full;
    ck_cycles = t.n_cycles;
  }

let restore t ck =
  let back src dst = Array.blit src 0 dst 0 (Array.length dst) in
  back ck.ck_values t.values;
  back ck.ck_pending t.pending;
  back ck.ck_fill t.lvl_fill;
  back ck.ck_queue t.queue;
  t.need_full <- ck.ck_need_full;
  t.n_cycles <- ck.ck_cycles;
  (* Mid-epoch transients never survive a step, so a rewind (even from
     inside an observer) simply clears them. *)
  for i = 0 to t.n_touched - 1 do
    t.epoch_seen.(t.touched.(i)) <- false
  done;
  t.n_touched <- 0;
  t.in_epoch <- false;
  (* Cause links must not leap across the rewind. *)
  Array.fill t.ev_last 0 (Array.length t.ev_last) Obs.Event.no_cause

let checkpoint_cycle ck = ck.ck_cycles

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let lanes t = t.lanes
let netlist t = t.nl
let faults t = t.n_faults
let cycles t = t.n_cycles
let gate_evals t = t.n_evals
let cells_skipped t = t.n_skipped
let comb_cells t = Array.length t.s.order
let dff_cells t = Array.length t.s.dffs
let full_settles t = t.n_full_settles

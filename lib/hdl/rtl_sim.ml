exception Combinational_loop of string

(* Global activity counters (see Metrics.Perf). *)
let ctr_settles = Perf.counter "rtl_sim.settles"
let ctr_runs = Perf.counter "rtl_sim.process_runs"
let ctr_skips = Perf.counter "rtl_sim.process_skips"
let ctr_sync_runs = Perf.counter "rtl_sim.sync_runs"

(* Distributions per settle (see Obs.Hist; recording is off unless a
   caller enables it). *)
let hist_dirty = Obs.Hist.histogram "rtl_sim.dirty_vars_per_settle"
let hist_runs_per_settle = Obs.Hist.histogram "rtl_sim.comb_runs_per_settle"

type sync_proc = {
  s_name : string;
  s_body : Ir.stmt list;
  s_writes : Ir.var list;
  s_snap : Ir.var list;
      (* vars whose pre-edge value the activation can observe: the body's
         entry reads plus every write target (an untaken write path must
         commit the old value back unchanged) *)
  mutable s_runs : int;  (* activity profile: activations of this process *)
}

type comb_proc = {
  c_name : string;
  c_body : Ir.stmt list;
  c_writes : Ir.var list;
  c_inputs : int list;  (* ids of vars whose entry value the body observes *)
  c_self : bool;  (* reads one of its own write targets before writing it *)
  mutable c_runs : int;  (* activity profile: evaluations of this process *)
}

(* Slot layout of the observation tap (one slot per bit of every scalar
   port and local), allocated by the first [observe].  Change detection
   rides the existing dirty-marking: a var that never gets marked dirty
   cannot have changed, so an epoch (one clock cycle) only re-examines
   the vars the scheduler already knew about.  [tr_prev] holds each
   tracked var's value at the previous epoch close, giving per-bit edge
   directions without any per-delta sampling. *)
type track = {
  tr_names : string array;  (* per slot *)
  tr_index : (int, int) Hashtbl.t;  (* var id -> tracked index *)
  tr_vars : Ir.var array;
  tr_base : int array;  (* first slot per tracked var *)
  tr_prev : Bitvec.t array;
  tr_dirty : (int, unit) Hashtbl.t;  (* tracked indices touched this epoch *)
}

type t = {
  flat : Ir.module_def;
  env : Eval.env;
  inputs : (string, Ir.var) Hashtbl.t;
  outputs : (string, Ir.var) Hashtbl.t;
  combs : comb_proc array;  (* dependency order (writers before readers) *)
  comb_cycle : string option;  (* diagnostic when the graph is cyclic *)
  syncs : sync_proc list;
  dirty : (int, unit) Hashtbl.t;  (* var ids changed since last settle *)
  mutable full_settle : bool;  (* first settle runs everything *)
  mutable n_cycles : int;
  mutable n_settles : int;
  mutable n_comb_runs : int;
  mutable n_comb_skips : int;
  mutable n_sync_runs : int;
  (* Observation tap subscribers in subscription order (see Cover.Tap;
     [on_step] watchers use only [cycle_end]), the slot layout once
     anything observes slots, and the collector [enable_toggle_cover]
     subscribed. *)
  mutable subs : Cover.Tap.t list;
  mutable track : track option;
  mutable toggle : Cover.Toggle.t option;
  (* Causal event log plumbing (see Obs.Event): [ev_last] maps a var id
     to the seq of its latest change event, giving each process run and
     each committed write a cause link.  Off by default: the hot paths
     pay one [ev_on] branch. *)
  mutable ev_on : bool;
  ev_last : (int, int) Hashtbl.t;
}

let dedup_vars vars =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (v : Ir.var) ->
      if Hashtbl.mem seen v.Ir.id then false
      else begin
        Hashtbl.replace seen v.Ir.id ();
        true
      end)
    vars

(* Order comb processes so writers precede readers, keeping the original
   relative order of unconstrained processes (Kahn's algorithm with
   lowest-index selection); this preserves the final values the old
   run-in-order fixpoint produced when several processes write the same
   variable.  Self-dependencies are handled by local iteration, not
   ordering.  Returns the order, or the name of a process on a cycle. *)
let dependency_order (combs : comb_proc array) =
  let n = Array.length combs in
  let writers = Hashtbl.create 32 in
  Array.iteri
    (fun i cp ->
      List.iter
        (fun (v : Ir.var) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt writers v.Ir.id) in
          Hashtbl.replace writers v.Ir.id (i :: prev))
        cp.c_writes)
    combs;
  let edge = Hashtbl.create 64 in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun i cp ->
      List.iter
        (fun id ->
          List.iter
            (fun j ->
              if j <> i && not (Hashtbl.mem edge (j, i)) then begin
                Hashtbl.replace edge (j, i) ();
                succs.(j) <- i :: succs.(j);
                indeg.(i) <- indeg.(i) + 1
              end)
            (Option.value ~default:[] (Hashtbl.find_opt writers id)))
        cp.c_inputs)
    combs;
  let placed = Array.make n false in
  let order = ref [] and n_placed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let pick = ref (-1) in
    for i = n - 1 downto 0 do
      if (not placed.(i)) && indeg.(i) = 0 then pick := i
    done;
    match !pick with
    | -1 -> continue_ := false
    | i ->
        placed.(i) <- true;
        incr n_placed;
        order := i :: !order;
        List.iter (fun j -> indeg.(j) <- indeg.(j) - 1) succs.(i)
  done;
  if !n_placed = n then Ok (Array.of_list (List.rev_map (fun i -> combs.(i)) !order))
  else begin
    let culprit = ref "" in
    for i = n - 1 downto 0 do
      if not placed.(i) then culprit := combs.(i).c_name
    done;
    Error !culprit
  end

let create m =
  let flat = Elaborate.flatten m in
  let inputs = Hashtbl.create 8 and outputs = Hashtbl.create 8 in
  List.iter
    (fun (p : Ir.port) ->
      match p.dir with
      | Input -> Hashtbl.replace inputs p.port_name p.port_var
      | Output -> Hashtbl.replace outputs p.port_name p.port_var)
    flat.ports;
  let combs, syncs =
    List.fold_left
      (fun (cs, ss) proc ->
        match proc with
        | Ir.Comb { proc_name; body } ->
            let writes = dedup_vars (Ir.body_writes body) in
            List.iter
              (fun (v : Ir.var) ->
                if Ir.is_array v then
                  raise
                    (Ir.Type_error
                       (Printf.sprintf
                          "comb process %s writes memory %s (inferred latch)"
                          proc_name v.Ir.var_name)))
              writes;
            let input_vars = Ir.body_inputs body in
            let write_ids = Hashtbl.create 8 in
            List.iter (fun (v : Ir.var) -> Hashtbl.replace write_ids v.Ir.id ()) writes;
            let c_self =
              List.exists (fun (v : Ir.var) -> Hashtbl.mem write_ids v.Ir.id) input_vars
            in
            ( {
                c_name = proc_name;
                c_body = body;
                c_writes = writes;
                c_inputs = List.map (fun (v : Ir.var) -> v.Ir.id) input_vars;
                c_self;
                c_runs = 0;
              }
              :: cs,
              ss )
        | Ir.Sync { proc_name; body } ->
            let writes = dedup_vars (Ir.body_writes body) in
            ( cs,
              {
                s_name = proc_name;
                s_body = body;
                s_writes = writes;
                s_snap = dedup_vars (Ir.body_inputs body @ writes);
                s_runs = 0;
              }
              :: ss ))
      ([], []) flat.processes
  in
  let combs = Array.of_list (List.rev combs) in
  let combs, comb_cycle =
    match dependency_order combs with
    | Ok ordered -> (ordered, None)
    | Error name ->
        ( combs,
          Some
            (Printf.sprintf "%s: combinational cycle through process %s"
               flat.Ir.mod_name name) )
  in
  {
    flat;
    env = Eval.create ();
    inputs;
    outputs;
    combs;
    comb_cycle;
    syncs = List.rev syncs;
    dirty = Hashtbl.create 64;
    full_settle = true;
    n_cycles = 0;
    n_settles = 0;
    n_comb_runs = 0;
    n_comb_skips = 0;
    n_sync_runs = 0;
    subs = [];
    track = None;
    toggle = None;
    ev_on = false;
    ev_last = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Causal event emission.                                              *)

let enable_events t =
  t.ev_on <- true;
  if not (Obs.Event.enabled ()) then Obs.Event.enable ()

let emitting t = t.ev_on && Obs.Event.enabled ()

(* Low bits of a value, for the event record (wide vars truncate). *)
let ev_value bv =
  if Bitvec.width bv <= 62 then Bitvec.to_int bv
  else Bitvec.to_int (Bitvec.slice bv ~hi:61 ~lo:0)

(* Most recent change among a set of observed var ids — the cause of a
   process activation they woke. *)
let ev_cause_of t ids =
  List.fold_left
    (fun acc id ->
      match Hashtbl.find_opt t.ev_last id with
      | Some s when s > acc -> s
      | _ -> acc)
    Obs.Event.no_cause ids

let ev_change t kind (v : Ir.var) cause =
  let value = if Ir.is_array v then 0 else ev_value (Eval.get t.env v) in
  let s = Obs.Event.emit ~cycle:t.n_cycles ~value ~cause kind v.Ir.var_name in
  Hashtbl.replace t.ev_last v.Ir.id s

let find_port t name =
  match Hashtbl.find_opt t.inputs name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt t.outputs name with
      | Some v -> v
      | None -> raise Not_found)

let mark_dirty t id =
  Hashtbl.replace t.dirty id ();
  (* One branch while nothing observes slots — same discipline as
     Obs.Span. *)
  match t.track with
  | None -> ()
  | Some tr -> (
      match Hashtbl.find_opt tr.tr_index id with
      | Some k -> Hashtbl.replace tr.tr_dirty k ()
      | None -> ())

let set_input t name bv =
  match Hashtbl.find_opt t.inputs name with
  | None -> raise Not_found
  | Some v ->
      if Bitvec.width bv <> v.Ir.width then
        invalid_arg
          (Printf.sprintf "set_input %s: width %d expected %d" name
             (Bitvec.width bv) v.Ir.width);
      if not (Bitvec.equal bv (Eval.get t.env v)) then begin
        Eval.set t.env v bv;
        mark_dirty t v.Ir.id;
        if emitting t then ev_change t Obs.Event.Stimulus v Obs.Event.no_cause
      end

let set_input_int t name n =
  let v = Hashtbl.find t.inputs name in
  set_input t name (Bitvec.of_int ~width:v.Ir.width n)

let get t name = Eval.get t.env (find_port t name)
let get_int t name = Bitvec.to_int (get t name)
let peek_var t v = Eval.get t.env v
let peek_array t v = Eval.get_array t.env v

(* Run one comb process on the live env; returns whether any of its
   outputs changed, marking changed vars dirty for downstream readers. *)
let run_comb t (cp : comb_proc) =
  let before = List.map (fun v -> Eval.get t.env v) cp.c_writes in
  (* The activation's cause is the latest change among the vars it
     observes — exactly the dirty-set propagation that scheduled it. *)
  let run_seq =
    if emitting t then
      Obs.Event.emit ~cycle:t.n_cycles
        ~cause:(ev_cause_of t cp.c_inputs)
        Obs.Event.Process_run cp.c_name
    else Obs.Event.no_cause
  in
  Eval.run_body t.env cp.c_body;
  t.n_comb_runs <- t.n_comb_runs + 1;
  cp.c_runs <- cp.c_runs + 1;
  Perf.incr ctr_runs;
  let changed = ref false in
  List.iter2
    (fun (v : Ir.var) old ->
      if not (Bitvec.equal old (Eval.get t.env v)) then begin
        changed := true;
        mark_dirty t v.Ir.id;
        if run_seq <> Obs.Event.no_cause then
          ev_change t Obs.Event.Var_change v run_seq
      end)
    cp.c_writes before;
  !changed

(* A process that observes one of its own write targets (read before
   write somewhere in the body) needs the old global fixpoint — but only
   over itself, since cross-process cycles are rejected statically. *)
let run_comb_converge t cp =
  let bound = 2 + max (Array.length t.combs) (List.length cp.c_writes) in
  let rec go n =
    if n > bound then
      raise
        (Combinational_loop
           (Printf.sprintf "%s: process %s does not stabilize"
              t.flat.Ir.mod_name cp.c_name));
    if run_comb t cp then go (n + 1)
  in
  go 1

let settle_inner t =
  (match t.comb_cycle with
  | Some msg -> raise (Combinational_loop msg)
  | None -> ());
  t.n_settles <- t.n_settles + 1;
  Perf.incr ctr_settles;
  Obs.Hist.observe_int hist_dirty (Hashtbl.length t.dirty);
  let runs_before = t.n_comb_runs in
  let force = t.full_settle in
  Array.iter
    (fun cp ->
      if
        force || List.exists (fun id -> Hashtbl.mem t.dirty id) cp.c_inputs
      then
        if cp.c_self then run_comb_converge t cp else ignore (run_comb t cp)
      else begin
        t.n_comb_skips <- t.n_comb_skips + 1;
        Perf.incr ctr_skips
      end)
    t.combs;
  t.full_settle <- false;
  Obs.Hist.observe_int hist_runs_per_settle (t.n_comb_runs - runs_before);
  (* Processes run in dependency order, so every change was seen by all
     downstream readers; the whole dirty set is consumed. *)
  Hashtbl.reset t.dirty

let settle t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"rtl_sim.settle" (fun () -> settle_inner t)
  else settle_inner t

(* Close one epoch: compare each touched tracked var against its value
   at the previous epoch close and report per-bit edges.  Bits that
   glitched within the cycle but ended where they started do not count
   — subscribers see committed cycle-to-cycle transitions, matching
   what the netlist simulators report. *)
let close_epoch t tr =
  if Hashtbl.length tr.tr_dirty > 0 then begin
    Hashtbl.iter
      (fun k () ->
        let v = tr.tr_vars.(k) in
        let cur = Eval.get t.env v in
        let old = tr.tr_prev.(k) in
        if not (Bitvec.equal old cur) then begin
          let b0 = tr.tr_base.(k) in
          for b = 0 to v.Ir.width - 1 do
            let rising = Bitvec.get cur b in
            if Bitvec.get old b <> rising then
              Cover.Tap.change_all t.subs (b0 + b) ~rising
          done;
          tr.tr_prev.(k) <- cur
        end)
      tr.tr_dirty;
    Hashtbl.reset tr.tr_dirty
  end

let step_inner t =
  settle t;
  (* All synchronous processes observe the same pre-edge state.  Each
     gets a private snapshot of just the vars it can read (plus its
     write targets, whose old values an untaken write path commits
     back); building every snapshot before any body runs keeps the
     pre-edge view consistent. *)
  let commits =
    List.map
      (fun sp ->
        let local = Eval.snapshot t.env sp.s_snap in
        Eval.run_body local sp.s_body;
        sp.s_runs <- sp.s_runs + 1;
        t.n_sync_runs <- t.n_sync_runs + 1;
        Perf.incr ctr_sync_runs;
        (sp, local))
      t.syncs
  in
  (* Each activation observed the pre-edge state; its cause is the
     latest pre-edge change among the vars it could read — sampled for
     every process before any commit moves [ev_last] past the edge. *)
  let ev_causes =
    if emitting t then
      List.map
        (fun ((sp : sync_proc), _) ->
          ev_cause_of t (List.map (fun (v : Ir.var) -> v.Ir.id) sp.s_snap))
        commits
    else []
  in
  List.iteri
    (fun ci ((sp : sync_proc), local) ->
      let run_seq =
        if emitting t then
          Obs.Event.emit ~cycle:t.n_cycles ~cause:(List.nth ev_causes ci)
            Obs.Event.Process_run sp.s_name
        else Obs.Event.no_cause
      in
      List.iter
        (fun (v : Ir.var) ->
          if Ir.is_array v then begin
            let src = Eval.get_array local v in
            let dst = Eval.get_array t.env v in
            let changed = ref false in
            Array.iteri
              (fun i x ->
                if not (Bitvec.equal dst.(i) x) then begin
                  dst.(i) <- x;
                  changed := true
                end)
              src;
            if !changed then begin
              mark_dirty t v.Ir.id;
              if run_seq <> Obs.Event.no_cause then
                ev_change t Obs.Event.Var_change v run_seq
            end
          end
          else begin
            let nv = Eval.get local v in
            if not (Bitvec.equal nv (Eval.get t.env v)) then begin
              Eval.set t.env v nv;
              mark_dirty t v.Ir.id;
              if run_seq <> Obs.Event.no_cause then
                ev_change t Obs.Event.Var_change v run_seq
            end
          end)
        sp.s_writes)
    commits;
  t.n_cycles <- t.n_cycles + 1;
  settle t;
  (match t.track with
  | None -> ()
  | Some tr ->
      close_epoch t tr;
      if emitting t then
        ignore
          (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Cover_epoch
             t.flat.Ir.mod_name));
  Cover.Tap.cycle_end_all t.subs

let step t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"rtl_sim.step" (fun () -> step_inner t)
  else step_inner t

let run t n =
  for _ = 1 to n do
    step t
  done

let cycles t = t.n_cycles
let design t = t.flat
let settles t = t.n_settles
let comb_runs t = t.n_comb_runs
let comb_skips t = t.n_comb_skips
let sync_runs t = t.n_sync_runs

(* Activity profile: activations per process since creation, in
   hierarchical name order ("instance.process" after flattening), so
   the ranking attributes simulation work to ExpoCU module instances. *)
let process_activity t =
  let combs = Array.to_list (Array.map (fun cp -> (cp.c_name, cp.c_runs)) t.combs) in
  let syncs = List.map (fun sp -> (sp.s_name, sp.s_runs)) t.syncs in
  List.sort (fun (a, _) (b, _) -> compare a b) (combs @ syncs)

(* Look up any scalar or port variable of the flattened design by its
   hierarchical name ("u_i2c.slot"); the hook monitors and FSM
   registration use to reach internal state. *)
let find_var t name =
  let matches (v : Ir.var) = v.Ir.var_name = name in
  match
    List.find_opt (fun (p : Ir.port) -> matches p.port_var) t.flat.Ir.ports
  with
  | Some p -> Some p.port_var
  | None -> List.find_opt matches t.flat.Ir.locals

let subscribe t tap = t.subs <- t.subs @ [ tap ]

let on_step t f =
  subscribe t
    { Cover.Tap.change = (fun _ ~rising:_ -> ()); cycle_end = (fun () -> f t) }

let track t =
  match t.track with
  | Some tr -> tr
  | None ->
      let scalars =
        dedup_vars
          (List.filter
             (fun v -> not (Ir.is_array v))
             (List.map (fun (p : Ir.port) -> p.Ir.port_var) t.flat.Ir.ports
             @ t.flat.Ir.locals))
      in
      let vars = Array.of_list scalars in
      let index = Hashtbl.create (2 * Array.length vars) in
      Array.iteri (fun i (v : Ir.var) -> Hashtbl.replace index v.Ir.id i) vars;
      let base = Array.make (Array.length vars) 0 in
      for i = 1 to Array.length vars - 1 do
        base.(i) <- base.(i - 1) + vars.(i - 1).Ir.width
      done;
      let bit_names (v : Ir.var) =
        if v.Ir.width = 1 then [ v.Ir.var_name ]
        else List.init v.Ir.width (Printf.sprintf "%s[%d]" v.Ir.var_name)
      in
      let tr =
        {
          tr_names = Array.of_list (List.concat_map bit_names scalars);
          tr_index = index;
          tr_vars = vars;
          tr_base = base;
          tr_prev = Array.map (fun v -> Eval.get t.env v) vars;
          tr_dirty = Hashtbl.create 64;
        }
      in
      t.track <- Some tr;
      tr

let observe t f = subscribe t (f (track t).tr_names)

let enable_toggle_cover t =
  if t.toggle = None then
    observe t (fun names ->
        let c = Cover.Toggle.create ~names in
        t.toggle <- Some c;
        Cover.Toggle.tap c)

let toggle_cover t = t.toggle

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore: deep-copied env plus the scheduler state the
   next settle depends on.  Subscribers are deliberately not captured
   — a restore rewinds simulation state, not the observability
   accumulated about it. *)

type checkpoint = {
  ck_env : Eval.env;
  ck_dirty : (int, unit) Hashtbl.t;
  ck_full : bool;
  ck_cycles : int;
}

let checkpoint t =
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Checkpoint
         t.flat.Ir.mod_name);
  {
    ck_env = Eval.copy t.env;
    ck_dirty = Hashtbl.copy t.dirty;
    ck_full = t.full_settle;
    ck_cycles = t.n_cycles;
  }

let restore t ck =
  Eval.overwrite t.env ck.ck_env;
  Hashtbl.reset t.dirty;
  Hashtbl.iter (fun id () -> Hashtbl.replace t.dirty id ()) ck.ck_dirty;
  t.full_settle <- ck.ck_full;
  t.n_cycles <- ck.ck_cycles;
  (* Cause links must not leap across the rewind: changes before the
     restore point are no longer "the latest write" of anything. *)
  Hashtbl.reset t.ev_last

let checkpoint_cycle ck = ck.ck_cycles

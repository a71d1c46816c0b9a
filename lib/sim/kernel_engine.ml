type port = { p_name : string; p_width : int }

type t = {
  kernel : Kernel.t;
  step_fn : unit -> unit;
  settle_fn : unit -> unit;
  mutable ins : (port * (Bitvec.t -> unit)) list;  (* reverse order *)
  mutable outs : (port * (unit -> Bitvec.t)) list;
  driven : (string, Bitvec.t) Hashtbl.t;
  mutable n_cycles : int;
}

let create kernel ?settle ~step () =
  {
    kernel;
    step_fn = step;
    settle_fn = Option.value settle ~default:(fun () -> Kernel.run_for kernel 0);
    ins = [];
    outs = [];
    driven = Hashtbl.create 8;
    n_cycles = 0;
  }

let add_input t name ~width set =
  t.ins <- ({ p_name = name; p_width = width }, set) :: t.ins

let add_output t name ~width get =
  t.outs <- ({ p_name = name; p_width = width }, get) :: t.outs

let input_signal t ~width s =
  add_input t (Signal.name s) ~width (Signal.write s)

let output_signal t ~width s =
  add_output t (Signal.name s) ~width (fun () -> Signal.read s)

let bool_input_signal t s =
  add_input t (Signal.name s) ~width:1 (fun bv -> Signal.write s (Bitvec.lsb bv))

let bool_output_signal t s =
  add_output t (Signal.name s) ~width:1 (fun () ->
      Bitvec.of_bool (Signal.read s))

module Impl = struct
  type nonrec t = t

  let kind = "behavioural"

  let port_list l = List.rev_map (fun (p, _) -> (p.p_name, p.p_width)) l
  let inputs t = port_list t.ins
  let outputs t = port_list t.outs

  let set_input t name bv =
    match
      List.find_opt (fun (p, _) -> p.p_name = name) t.ins
    with
    | None -> raise Not_found
    | Some (p, set) ->
        if Bitvec.width bv <> p.p_width then
          invalid_arg
            (Printf.sprintf "Kernel_engine.set_input %s: width %d expected %d"
               name (Bitvec.width bv) p.p_width);
        Hashtbl.replace t.driven name bv;
        set bv

  let get t name =
    match List.find_opt (fun (p, _) -> p.p_name = name) t.outs with
    | Some (_, read) -> read ()
    | None -> (
        match Hashtbl.find_opt t.driven name with
        | Some bv -> bv
        | None ->
            let p, _ = List.find (fun (p, _) -> p.p_name = name) t.ins in
            Bitvec.zero p.p_width)

  let settle t = t.settle_fn ()

  let step t =
    t.step_fn ();
    t.n_cycles <- t.n_cycles + 1

  let cycles t = t.n_cycles
  let lanes _ = 1

  let stats t =
    [
      ("delta_cycles", Kernel.delta_count t.kernel);
      ("process_runs", Kernel.process_runs t.kernel);
      ( "process_wakes",
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Kernel.wake_counts t.kernel)
      );
    ]

  (* Behavioural processes expose ports only. *)
  let probes _ = []
  let probe _ _ = raise Not_found

  (* Behavioural processes keep their state in closures: no slots to
     observe. *)
  let observe _ _ = ()
  let enable_events t = Kernel.enable_events t.kernel

  (* Rewinding suspended process continuations is not supported. *)
  let checkpoint _ = None
end

let engine ?label t = Engine.pack ?label (module Impl) t

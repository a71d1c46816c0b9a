let mark_live nl =
  let live = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun (_, nets) -> Array.iter (fun n -> Queue.push n queue) nets)
    (Netlist.outputs nl);
  while not (Queue.is_empty queue) do
    let net = Queue.pop queue in
    if not (Hashtbl.mem live net) then begin
      Hashtbl.replace live net ();
      match Netlist.driver nl net with
      | None -> ()
      | Some c -> Array.iter (fun i -> Queue.push i queue) c.Netlist.ins
    end
  done;
  live

let optimize nl =
  let live = mark_live nl in
  let fresh = Netlist.create ~fold:true ~name:(Netlist.name nl) () in
  let net_map = Hashtbl.create 256 in
  (* Regions and name hints ride along: whenever an old net gets a
     fresh counterpart, its annotations are copied (first writer wins —
     folding can merge several old nets onto one fresh net, and the
     first name/owner is the one reports keep). *)
  let bind old_net fresh_net =
    Netlist.copy_meta ~src:nl ~dst:fresh old_net fresh_net;
    Hashtbl.replace net_map old_net fresh_net
  in
  let remap n =
    match Hashtbl.find_opt net_map n with
    | Some n' -> n'
    | None ->
        (* An input net that feeds nothing live, or a don't-care: map to
           constant zero so widths stay intact. *)
        Netlist.const0 fresh
  in
  List.iter
    (fun (name, nets) ->
      let fresh_nets = Netlist.add_input fresh name (Array.length nets) in
      Array.iteri (fun i n -> bind n fresh_nets.(i)) nets)
    (Netlist.inputs nl);
  (* Live flip-flops first: their q nets are read by logic created
     before their d inputs exist. *)
  let live_dffs =
    List.filter
      (fun (c : Netlist.cell) ->
        c.kind = Cell.Dff && Hashtbl.mem live c.out)
      (Netlist.cells nl)
  in
  List.iter
    (fun (c : Netlist.cell) -> bind c.out (Netlist.dff_deferred fresh))
    live_dffs;
  (* Combinational survivors in creation order (which is topological). *)
  List.iter
    (fun (c : Netlist.cell) ->
      if c.kind <> Cell.Dff && Hashtbl.mem live c.out then begin
        let i k = remap c.ins.(k) in
        let fresh_out =
          match c.kind with
          | Cell.Const0 -> Netlist.const0 fresh
          | Const1 -> Netlist.const1 fresh
          | Buf -> i 0
          | Not -> Netlist.not_ fresh (i 0)
          | And2 -> Netlist.and2 fresh (i 0) (i 1)
          | Or2 -> Netlist.or2 fresh (i 0) (i 1)
          | Xor2 -> Netlist.xor2 fresh (i 0) (i 1)
          | Nand2 -> Netlist.nand2 fresh (i 0) (i 1)
          | Nor2 -> Netlist.nor2 fresh (i 0) (i 1)
          | Mux2 -> Netlist.mux2 fresh ~sel:(i 0) (i 1) (i 2)
          | Dff -> assert false
        in
        bind c.out fresh_out
      end)
    (Netlist.cells nl);
  List.iter
    (fun (c : Netlist.cell) ->
      Netlist.connect_dff fresh
        ~q:(Hashtbl.find net_map c.out)
        ~d:(remap c.ins.(0)))
    live_dffs;
  List.iter
    (fun (name, nets) -> Netlist.add_output fresh name (Array.map remap nets))
    (Netlist.outputs nl);
  Netlist.check fresh;
  fresh

type net = int

type cell = { kind : Cell.kind; ins : net array; out : net }

type t = {
  nl_name : string;
  fold : bool;
  mutable next_net : int;
  mutable cell_list : cell list;  (* reverse creation order *)
  mutable n_cells : int;
  cse : (string, net) Hashtbl.t;
  drivers : (net, cell) Hashtbl.t;
  const_val : (net, bool) Hashtbl.t;
  mutable ins : (string * net array) list;
  mutable outs : (string * net array) list;
  pending : (net, unit) Hashtbl.t;
  mutable c0 : net option;
  mutable c1 : net option;
  (* Hierarchy annotations: which instance path owns each driven net
     ("" = the top module, "u_x.u_y" = nested instances) and optional
     human-readable name hints ("count[3]").  Both are advisory — no
     structural code consults them — but they survive the rewriting
     passes so reports, coverage and fault sites can speak in design
     terms instead of raw net ids. *)
  regions : (net, string) Hashtbl.t;
  hints : (net, string) Hashtbl.t;
}

let create ?(fold = true) ~name () =
  {
    nl_name = name;
    fold;
    next_net = 0;
    cell_list = [];
    n_cells = 0;
    cse = Hashtbl.create 1024;
    drivers = Hashtbl.create 1024;
    const_val = Hashtbl.create 64;
    ins = [];
    outs = [];
    pending = Hashtbl.create 16;
    c0 = None;
    c1 = None;
    regions = Hashtbl.create 64;
    hints = Hashtbl.create 64;
  }

let name t = t.nl_name
let folding t = t.fold

let new_net t =
  let n = t.next_net in
  t.next_net <- n + 1;
  n

let record_cell t kind ins out =
  let c = { kind; ins; out } in
  t.cell_list <- c :: t.cell_list;
  t.n_cells <- t.n_cells + 1;
  Hashtbl.replace t.drivers out c;
  out

let cse_key kind ins =
  Cell.name kind ^ ":" ^ String.concat "," (List.map string_of_int ins)

(* Create a cell, going through structural hashing when folding is on.
   Commutative gates normalize their operand order first. *)
let mk_cell t kind ins =
  let ins =
    if t.fold then
      match kind with
      | Cell.And2 | Or2 | Xor2 | Nand2 | Nor2 ->
          let sorted = List.sort compare ins in
          sorted
      | _ -> ins
    else ins
  in
  if t.fold then begin
    let key = cse_key kind ins in
    match Hashtbl.find_opt t.cse key with
    | Some n -> n
    | None ->
        let out = new_net t in
        ignore (record_cell t kind (Array.of_list ins) out);
        Hashtbl.replace t.cse key out;
        out
  end
  else begin
    let out = new_net t in
    record_cell t kind (Array.of_list ins) out
  end

let const0 t =
  match t.c0 with
  | Some n -> n
  | None ->
      let n = mk_cell t Cell.Const0 [] in
      Hashtbl.replace t.const_val n false;
      t.c0 <- Some n;
      n

let const1 t =
  match t.c1 with
  | Some n -> n
  | None ->
      let n = mk_cell t Cell.Const1 [] in
      Hashtbl.replace t.const_val n true;
      t.c1 <- Some n;
      n

let const_of t n = if t.fold then Hashtbl.find_opt t.const_val n else None
let const_net t b = if b then const1 t else const0 t

let not_ t a =
  match const_of t a with
  | Some b -> const_net t (not b)
  | None -> (
      (* Cancel double inverters. *)
      match Hashtbl.find_opt t.drivers a with
      | Some { kind = Cell.Not; ins; _ } when t.fold -> ins.(0)
      | _ -> mk_cell t Cell.Not [ a ])

let and2 t a b =
  match (const_of t a, const_of t b) with
  | Some false, _ | _, Some false -> const0 t
  | Some true, _ -> b
  | _, Some true -> a
  | None, None -> if t.fold && a = b then a else mk_cell t Cell.And2 [ a; b ]

let or2 t a b =
  match (const_of t a, const_of t b) with
  | Some true, _ | _, Some true -> const1 t
  | Some false, _ -> b
  | _, Some false -> a
  | None, None -> if t.fold && a = b then a else mk_cell t Cell.Or2 [ a; b ]

let xor2 t a b =
  match (const_of t a, const_of t b) with
  | Some x, Some y -> const_net t (x <> y)
  | Some false, _ -> b
  | _, Some false -> a
  | Some true, _ -> not_ t b
  | _, Some true -> not_ t a
  | None, None ->
      if t.fold && a = b then const0 t else mk_cell t Cell.Xor2 [ a; b ]

let nand2 t a b =
  match (const_of t a, const_of t b) with
  | Some false, _ | _, Some false -> const1 t
  | Some true, _ -> not_ t b
  | _, Some true -> not_ t a
  | None, None ->
      if t.fold && a = b then not_ t a else mk_cell t Cell.Nand2 [ a; b ]

let nor2 t a b =
  match (const_of t a, const_of t b) with
  | Some true, _ | _, Some true -> const0 t
  | Some false, _ -> not_ t b
  | _, Some false -> not_ t a
  | None, None ->
      if t.fold && a = b then not_ t a else mk_cell t Cell.Nor2 [ a; b ]

let mux2 t ~sel a b =
  match const_of t sel with
  | Some true -> a
  | Some false -> b
  | None -> (
      if t.fold && a = b then a
      else
        match (const_of t a, const_of t b) with
        | Some true, Some false -> sel
        | Some false, Some true -> not_ t sel
        | Some true, None -> or2 t sel b
        | Some false, None -> and2 t (not_ t sel) b
        | None, Some false -> and2 t sel a
        | None, Some true -> or2 t (not_ t sel) a
        | Some _, Some _ -> assert false (* covered above *)
        | None, None -> mk_cell t Cell.Mux2 [ sel; a; b ])

let dff t ~d =
  let out = new_net t in
  record_cell t Cell.Dff [| d |] out

let dff_deferred t =
  let out = new_net t in
  let q = record_cell t Cell.Dff [| -1 |] out in
  Hashtbl.replace t.pending q ();
  q

let connect_dff t ~q ~d =
  match Hashtbl.find_opt t.drivers q with
  | Some ({ kind = Cell.Dff; ins; _ } as _c) when Hashtbl.mem t.pending q ->
      ins.(0) <- d;
      Hashtbl.remove t.pending q
  | _ -> invalid_arg "Netlist.connect_dff: not a pending flip-flop"

let add_input t name width =
  let nets = Array.init width (fun _ -> new_net t) in
  t.ins <- (name, nets) :: t.ins;
  nets

let add_output t name nets = t.outs <- (name, nets) :: t.outs
let inputs t = List.rev t.ins
let outputs t = List.rev t.outs

let constant t bv =
  Array.init (Bitvec.width bv) (fun i -> const_net t (Bitvec.get bv i))

let cells t = List.rev t.cell_list
let cell_count t = t.n_cells
let net_count t = t.next_net
let driver t n = Hashtbl.find_opt t.drivers n

(* Hierarchy annotations. *)

let region_of t n =
  match Hashtbl.find_opt t.regions n with Some r -> r | None -> ""

let set_region t n path =
  if path = "" then Hashtbl.remove t.regions n
  else Hashtbl.replace t.regions n path

let hint_of t n = Hashtbl.find_opt t.hints n

(* First hint wins: structural hashing can merge nets across instances,
   and the first name a net got is the one reports should keep using. *)
let set_hint t n name =
  if not (Hashtbl.mem t.hints n) then Hashtbl.replace t.hints n name

let copy_meta ~src ~dst src_net dst_net =
  (match Hashtbl.find_opt src.regions src_net with
  | Some r when not (Hashtbl.mem dst.regions dst_net) ->
      Hashtbl.replace dst.regions dst_net r
  | _ -> ());
  match Hashtbl.find_opt src.hints src_net with
  | Some h -> set_hint dst dst_net h
  | None -> ()

let describe_net t n =
  let base =
    match hint_of t n with Some h -> h | None -> Printf.sprintf "n%d" n
  in
  match region_of t n with "" -> base | r -> r ^ "." ^ base

let region_table_size t = Hashtbl.length t.regions
let hint_table_size t = Hashtbl.length t.hints

let region_names t =
  let seen = Hashtbl.create 16 in
  Hashtbl.iter (fun _ r -> Hashtbl.replace seen r ()) t.regions;
  List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) seen [])

let check t =
  if Hashtbl.length t.pending > 0 then
    failwith
      (Printf.sprintf "Netlist.check %s: %d unconnected flip-flops" t.nl_name
         (Hashtbl.length t.pending));
  let input_nets = Hashtbl.create 64 in
  List.iter
    (fun (_, nets) ->
      Array.iter (fun n -> Hashtbl.replace input_nets n ()) nets)
    t.ins;
  List.iter
    (fun (c : cell) ->
      Array.iter
        (fun n ->
          if n < 0 || n >= t.next_net then
            failwith
              (Printf.sprintf "Netlist.check %s: dangling net %d" t.nl_name n);
          if (not (Hashtbl.mem t.drivers n)) && not (Hashtbl.mem input_nets n)
          then
            failwith
              (Printf.sprintf "Netlist.check %s: net %d has no driver"
                 t.nl_name n))
        c.ins)
    t.cell_list;
  List.iter
    (fun (out_name, nets) ->
      Array.iter
        (fun n ->
          if (not (Hashtbl.mem t.drivers n)) && not (Hashtbl.mem input_nets n)
          then
            failwith
              (Printf.sprintf "Netlist.check %s: output %s undriven" t.nl_name
                 out_name))
        nets)
    t.outs

let stats t =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let k = c.kind in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    t.cell_list;
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt counts k with
      | Some n -> Some (k, n)
      | None -> None)
    Cell.all

let emit_verilog t =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let w n = Printf.sprintf "n%d" n in
  let ports =
    [ "clk" ]
    @ List.map fst (inputs t)
    @ List.map fst (outputs t)
  in
  p "module %s(%s);\n" t.nl_name (String.concat ", " ports);
  p "  input clk;\n";
  List.iter
    (fun (n, nets) ->
      p "  input [%d:0] %s;\n" (Array.length nets - 1) n)
    (inputs t);
  List.iter
    (fun (n, nets) ->
      p "  output [%d:0] %s;\n" (Array.length nets - 1) n)
    (outputs t);
  List.iter
    (fun (n, nets) ->
      Array.iteri (fun i net -> p "  wire %s = %s[%d];\n" (w net) n i) nets)
    (inputs t);
  List.iter
    (fun c ->
      match c.kind with
      | Cell.Const0 -> p "  wire %s = 1'b0;\n" (w c.out)
      | Const1 -> p "  wire %s = 1'b1;\n" (w c.out)
      | Buf -> p "  wire %s = %s;\n" (w c.out) (w c.ins.(0))
      | Not -> p "  wire %s = ~%s;\n" (w c.out) (w c.ins.(0))
      | And2 -> p "  wire %s = %s & %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Or2 -> p "  wire %s = %s | %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Xor2 -> p "  wire %s = %s ^ %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Nand2 ->
          p "  wire %s = ~(%s & %s);\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Nor2 ->
          p "  wire %s = ~(%s | %s);\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Mux2 ->
          p "  wire %s = %s ? %s : %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
            (w c.ins.(2))
      | Dff ->
          p "  reg %s;\n" (w c.out);
          p "  always @(posedge clk) %s <= %s;\n" (w c.out) (w c.ins.(0)))
    (cells t);
  List.iter
    (fun (n, nets) ->
      p "  assign %s = {%s};\n" n
        (String.concat ", "
           (List.rev_map w (Array.to_list nets))))
    (outputs t);
  p "endmodule\n";
  Buffer.contents buf

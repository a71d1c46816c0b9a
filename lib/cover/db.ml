module Json = Obs.Json

let schema_version = "osss.coverage-db/v1"

type toggle = { t_name : string; t_rise : int; t_fall : int }

type fsm_state = { fs_name : string; fs_hits : int }
type fsm_arc = { fa_from : string; fa_to : string; fa_hits : int; fa_declared : bool }

type fsm = {
  f_name : string;
  f_states : fsm_state list;
  f_arcs : fsm_arc list;
  f_unknown : int;
}

type bin = { b_name : string; b_hits : int; b_goal : int; b_illegal : bool }
type group = { g_name : string; g_bins : bin list; g_other : int }

type monitor = { m_name : string; m_pass : int; m_vacuous : int; m_fail : int }

type t = {
  runs : string list;
  toggles : toggle list;
  fsms : fsm list;
  groups : group list;
  monitors : monitor list;
}

(* ------------------------------------------------------------------ *)
(* Construction from live collectors                                   *)

let toggle_entries ?(prefix = "") tog =
  let out = ref [] in
  for i = Toggle.bits tog - 1 downto 0 do
    out :=
      {
        t_name = prefix ^ Toggle.name tog i;
        t_rise = Toggle.rises tog i;
        t_fall = Toggle.falls tog i;
      }
      :: !out
  done;
  !out

let fsm_entry f =
  {
    f_name = Fsm.name f;
    f_states =
      List.map
        (fun (s : Fsm.state) -> { fs_name = s.st_name; fs_hits = s.st_hits })
        (Fsm.states f);
    f_arcs =
      List.map
        (fun (a : Fsm.arc) ->
          {
            fa_from = Fsm.state_label f a.a_from;
            fa_to = Fsm.state_label f a.a_to;
            fa_hits = a.a_hits;
            fa_declared = a.a_declared;
          })
        (Fsm.arcs f);
    f_unknown = Fsm.unknown_hits f;
  }

let group_entry g =
  {
    g_name = Group.name g;
    g_bins =
      List.map
        (fun (b : Group.bin) ->
          {
            b_name = b.bin_name;
            b_hits = b.hits;
            b_goal = b.goal;
            b_illegal = Group.is_illegal b.spec;
          })
        (Group.bins g);
    g_other = Group.other_hits g;
  }

let monitor ~name ~pass ~vacuous ~fail =
  { m_name = name; m_pass = pass; m_vacuous = vacuous; m_fail = fail }

let make ?(toggles = []) ?(fsms = []) ?(groups = []) ?(monitors = []) ~run () =
  {
    runs = [ run ];
    toggles;
    fsms = List.map fsm_entry fsms;
    groups = List.map group_entry groups;
    monitors;
  }

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

(* Union of two lists matched by [key]: items present on both sides are
   [combine]d in place of the first, unmatched second-side items are
   appended in their original order.  Keys are assumed unique per side. *)
let merge_by key combine xs ys =
  let tbl = Hashtbl.create 64 in
  List.iter (fun y -> Hashtbl.replace tbl (key y) y) ys;
  let merged =
    List.map
      (fun x ->
        match Hashtbl.find_opt tbl (key x) with
        | Some y ->
            Hashtbl.remove tbl (key x);
            combine x y
        | None -> x)
      xs
  in
  merged @ List.filter (fun y -> Hashtbl.mem tbl (key y)) ys

let merge a b =
  (* Run provenance dedups across the whole concatenation, keeping
     first-occurrence order: merging databases that already share a
     run label — or one whose [runs] carries a duplicate from an older
     file — must not grow the list on every merge. *)
  let runs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun r ->
        if Hashtbl.mem seen r then false
        else begin
          Hashtbl.replace seen r ();
          true
        end)
      (a.runs @ b.runs)
  in
  let toggles =
    merge_by
      (fun t -> t.t_name)
      (fun x y -> { x with t_rise = x.t_rise + y.t_rise; t_fall = x.t_fall + y.t_fall })
      a.toggles b.toggles
  in
  let merge_states =
    merge_by
      (fun s -> s.fs_name)
      (fun x y -> { x with fs_hits = x.fs_hits + y.fs_hits })
  in
  let merge_arcs =
    merge_by
      (fun r -> (r.fa_from, r.fa_to))
      (fun x y ->
        {
          x with
          fa_hits = x.fa_hits + y.fa_hits;
          fa_declared = x.fa_declared || y.fa_declared;
        })
  in
  let fsms =
    merge_by
      (fun f -> f.f_name)
      (fun x y ->
        {
          f_name = x.f_name;
          f_states = merge_states x.f_states y.f_states;
          f_arcs = merge_arcs x.f_arcs y.f_arcs;
          f_unknown = x.f_unknown + y.f_unknown;
        })
      a.fsms b.fsms
  in
  let merge_bins =
    merge_by
      (fun b -> b.b_name)
      (fun x y ->
        {
          x with
          b_hits = x.b_hits + y.b_hits;
          b_goal = max x.b_goal y.b_goal;
          b_illegal = x.b_illegal || y.b_illegal;
        })
  in
  let groups =
    merge_by
      (fun g -> g.g_name)
      (fun x y ->
        {
          g_name = x.g_name;
          g_bins = merge_bins x.g_bins y.g_bins;
          g_other = x.g_other + y.g_other;
        })
      a.groups b.groups
  in
  let monitors =
    merge_by
      (fun m -> m.m_name)
      (fun x y ->
        {
          x with
          m_pass = x.m_pass + y.m_pass;
          m_vacuous = x.m_vacuous + y.m_vacuous;
          m_fail = x.m_fail + y.m_fail;
        })
      a.monitors b.monitors
  in
  { runs; toggles; fsms; groups; monitors }

(* ------------------------------------------------------------------ *)
(* Totals / queries                                                    *)

type totals = {
  toggle_bits : int;
  toggle_covered : int;
  fsm_states : int;
  fsm_states_hit : int;
  fsm_arcs : int;
  fsm_arcs_hit : int;
  group_bins : int;
  group_bins_hit : int;
  illegal_hits : int;
  monitor_passes : int;
  monitor_vacuous : int;
  monitor_fails : int;
}

let toggle_is_covered t = t.t_rise > 0 && t.t_fall > 0

let totals db =
  let toggle_bits = List.length db.toggles in
  let toggle_covered = List.length (List.filter toggle_is_covered db.toggles) in
  let fsm_states = ref 0 and fsm_states_hit = ref 0 in
  let fsm_arcs = ref 0 and fsm_arcs_hit = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          incr fsm_states;
          if s.fs_hits > 0 then incr fsm_states_hit)
        f.f_states;
      List.iter
        (fun a ->
          if a.fa_declared then begin
            incr fsm_arcs;
            if a.fa_hits > 0 then incr fsm_arcs_hit
          end)
        f.f_arcs)
    db.fsms;
  let group_bins = ref 0 and group_bins_hit = ref 0 and illegal = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun b ->
          if b.b_illegal then illegal := !illegal + b.b_hits
          else begin
            incr group_bins;
            if b.b_hits >= b.b_goal then incr group_bins_hit
          end)
        g.g_bins)
    db.groups;
  let mp = ref 0 and mv = ref 0 and mf = ref 0 in
  List.iter
    (fun m ->
      mp := !mp + m.m_pass;
      mv := !mv + m.m_vacuous;
      mf := !mf + m.m_fail)
    db.monitors;
  {
    toggle_bits;
    toggle_covered;
    fsm_states = !fsm_states;
    fsm_states_hit = !fsm_states_hit;
    fsm_arcs = !fsm_arcs;
    fsm_arcs_hit = !fsm_arcs_hit;
    group_bins = !group_bins;
    group_bins_hit = !group_bins_hit;
    illegal_hits = !illegal;
    monitor_passes = !mp;
    monitor_vacuous = !mv;
    monitor_fails = !mf;
  }

let toggle_coverage db =
  let t = totals db in
  if t.toggle_bits = 0 then 1.0
  else float_of_int t.toggle_covered /. float_of_int t.toggle_bits

let fsm_is_full f =
  f.f_unknown = 0
  && List.for_all (fun s -> s.fs_hits > 0) f.f_states
  && List.for_all (fun a -> (not a.fa_declared) || a.fa_hits > 0) f.f_arcs

let fully_covered_fsms db =
  List.filter_map (fun f -> if fsm_is_full f then Some f.f_name else None) db.fsms

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)

let diff a b =
  let out = ref [] in
  let add kind item = out := (kind, item) :: !out in
  let b_toggle = Hashtbl.create 256 in
  List.iter (fun t -> Hashtbl.replace b_toggle t.t_name (toggle_is_covered t)) b.toggles;
  List.iter
    (fun t ->
      if toggle_is_covered t then
        match Hashtbl.find_opt b_toggle t.t_name with
        | Some true -> ()
        | _ -> add "toggle" t.t_name)
    a.toggles;
  let b_fsm = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace b_fsm f.f_name f) b.fsms;
  List.iter
    (fun f ->
      let other = Hashtbl.find_opt b_fsm f.f_name in
      List.iter
        (fun s ->
          if s.fs_hits > 0 then begin
            let covered_in_b =
              match other with
              | None -> false
              | Some o ->
                  List.exists
                    (fun s' -> s'.fs_name = s.fs_name && s'.fs_hits > 0)
                    o.f_states
            in
            if not covered_in_b then
              add "fsm-state" (f.f_name ^ "." ^ s.fs_name)
          end)
        f.f_states;
      List.iter
        (fun arc ->
          if arc.fa_hits > 0 then begin
            let covered_in_b =
              match other with
              | None -> false
              | Some o ->
                  List.exists
                    (fun a' ->
                      a'.fa_from = arc.fa_from && a'.fa_to = arc.fa_to
                      && a'.fa_hits > 0)
                    o.f_arcs
            in
            if not covered_in_b then
              add "fsm-arc"
                (Printf.sprintf "%s.%s->%s" f.f_name arc.fa_from arc.fa_to)
          end)
        f.f_arcs)
    a.fsms;
  let b_grp = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace b_grp g.g_name g) b.groups;
  List.iter
    (fun g ->
      List.iter
        (fun bn ->
          if (not bn.b_illegal) && bn.b_hits >= bn.b_goal then begin
            let covered_in_b =
              match Hashtbl.find_opt b_grp g.g_name with
              | None -> false
              | Some o ->
                  List.exists
                    (fun b' -> b'.b_name = bn.b_name && b'.b_hits >= b'.b_goal)
                    o.g_bins
            in
            if not covered_in_b then add "bin" (g.g_name ^ "." ^ bn.b_name)
          end)
        g.g_bins)
    a.groups;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Text summary                                                        *)

let pct n d = if d = 0 then 100.0 else 100.0 *. float_of_int n /. float_of_int d

let summary db =
  let t = totals db in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "coverage summary (runs: %s)" (String.concat ", " db.runs);
  line "  toggle bits  %5d/%-5d %6.1f%%" t.toggle_covered t.toggle_bits
    (pct t.toggle_covered t.toggle_bits);
  line "  fsm states   %5d/%-5d %6.1f%%" t.fsm_states_hit t.fsm_states
    (pct t.fsm_states_hit t.fsm_states);
  line "  fsm arcs     %5d/%-5d %6.1f%%" t.fsm_arcs_hit t.fsm_arcs
    (pct t.fsm_arcs_hit t.fsm_arcs);
  line "  group bins   %5d/%-5d %6.1f%%" t.group_bins_hit t.group_bins
    (pct t.group_bins_hit t.group_bins);
  line "  illegal hits %5d" t.illegal_hits;
  line "  monitors     pass %d  vacuous %d  fail %d" t.monitor_passes
    t.monitor_vacuous t.monitor_fails;
  List.iter
    (fun f ->
      let sh = List.length (List.filter (fun s -> s.fs_hits > 0) f.f_states) in
      let declared = List.filter (fun a -> a.fa_declared) f.f_arcs in
      let ah = List.length (List.filter (fun a -> a.fa_hits > 0) declared) in
      line "  fsm %-20s states %d/%d  arcs %d/%d%s%s" f.f_name sh
        (List.length f.f_states) ah (List.length declared)
        (if f.f_unknown > 0 then Printf.sprintf "  unknown %d" f.f_unknown else "")
        (if fsm_is_full f then "  [FULL]" else ""))
    db.fsms;
  List.iter
    (fun g ->
      let legal = List.filter (fun b -> not b.b_illegal) g.g_bins in
      let hit = List.length (List.filter (fun b -> b.b_hits >= b.b_goal) legal) in
      let ill =
        List.fold_left
          (fun acc b -> if b.b_illegal then acc + b.b_hits else acc)
          0 g.g_bins
      in
      line "  group %-18s bins %d/%d  other %d%s" g.g_name hit
        (List.length legal) g.g_other
        (if ill > 0 then Printf.sprintf "  ILLEGAL %d" ill else ""))
    db.groups;
  List.iter
    (fun m ->
      line "  monitor %-16s pass %d  vacuous %d  fail %d%s" m.m_name m.m_pass
        m.m_vacuous m.m_fail
        (if m.m_fail > 0 then "  [FAIL]" else ""))
    db.monitors;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let to_json db =
  let t = totals db in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("runs", Json.List (List.map (fun r -> Json.String r) db.runs));
      ( "totals",
        Json.Obj
          [
            ("toggle_bits", Json.Int t.toggle_bits);
            ("toggle_covered", Json.Int t.toggle_covered);
            ("toggle_pct", Json.Float (pct t.toggle_covered t.toggle_bits));
            ("fsm_states", Json.Int t.fsm_states);
            ("fsm_states_hit", Json.Int t.fsm_states_hit);
            ("fsm_arcs", Json.Int t.fsm_arcs);
            ("fsm_arcs_hit", Json.Int t.fsm_arcs_hit);
            ("group_bins", Json.Int t.group_bins);
            ("group_bins_hit", Json.Int t.group_bins_hit);
            ("illegal_hits", Json.Int t.illegal_hits);
            ("monitor_passes", Json.Int t.monitor_passes);
            ("monitor_vacuous", Json.Int t.monitor_vacuous);
            ("monitor_fails", Json.Int t.monitor_fails);
          ] );
      ( "toggles",
        Json.List
          (List.map
             (fun tg ->
               Json.List
                 [ Json.String tg.t_name; Json.Int tg.t_rise; Json.Int tg.t_fall ])
             db.toggles) );
      ( "fsms",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("name", Json.String f.f_name);
                   ( "states",
                     Json.List
                       (List.map
                          (fun s ->
                            Json.Obj
                              [
                                ("name", Json.String s.fs_name);
                                ("hits", Json.Int s.fs_hits);
                              ])
                          f.f_states) );
                   ( "arcs",
                     Json.List
                       (List.map
                          (fun a ->
                            Json.Obj
                              [
                                ("from", Json.String a.fa_from);
                                ("to", Json.String a.fa_to);
                                ("hits", Json.Int a.fa_hits);
                                ("declared", Json.Bool a.fa_declared);
                              ])
                          f.f_arcs) );
                   ("unknown_states", Json.Int f.f_unknown);
                 ])
             db.fsms) );
      ( "groups",
        Json.List
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("name", Json.String g.g_name);
                   ( "bins",
                     Json.List
                       (List.map
                          (fun b ->
                            Json.Obj
                              [
                                ("name", Json.String b.b_name);
                                ("hits", Json.Int b.b_hits);
                                ("goal", Json.Int b.b_goal);
                                ("illegal", Json.Bool b.b_illegal);
                              ])
                          g.g_bins) );
                   ("other", Json.Int g.g_other);
                 ])
             db.groups) );
      ( "monitors",
        Json.List
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("name", Json.String m.m_name);
                   ("pass", Json.Int m.m_pass);
                   ("vacuous", Json.Int m.m_vacuous);
                   ("fail", Json.Int m.m_fail);
                 ])
             db.monitors) );
    ]

exception Bad of string

let of_json j =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let mem name obj =
    match Json.member name obj with
    | Some v -> v
    | None -> fail "missing field %S" name
  in
  let get_string = function
    | Json.String s -> s
    | _ -> fail "expected string"
  in
  let get_int = function Json.Int n -> n | _ -> fail "expected int" in
  let get_bool = function Json.Bool b -> b | _ -> fail "expected bool" in
  let get_list = function Json.List l -> l | _ -> fail "expected list" in
  try
    (match Json.member "schema" j with
    | Some (Json.String s) when s = schema_version -> ()
    | Some (Json.String s) -> fail "unsupported coverage schema %S" s
    | _ -> fail "missing coverage schema");
    let runs = List.map get_string (get_list (mem "runs" j)) in
    let toggles =
      List.map
        (fun e ->
          match e with
          | Json.List [ n; r; f ] ->
              { t_name = get_string n; t_rise = get_int r; t_fall = get_int f }
          | _ -> fail "bad toggle entry")
        (get_list (mem "toggles" j))
    in
    let fsms =
      List.map
        (fun f ->
          {
            f_name = get_string (mem "name" f);
            f_states =
              List.map
                (fun s ->
                  {
                    fs_name = get_string (mem "name" s);
                    fs_hits = get_int (mem "hits" s);
                  })
                (get_list (mem "states" f));
            f_arcs =
              List.map
                (fun a ->
                  {
                    fa_from = get_string (mem "from" a);
                    fa_to = get_string (mem "to" a);
                    fa_hits = get_int (mem "hits" a);
                    fa_declared = get_bool (mem "declared" a);
                  })
                (get_list (mem "arcs" f));
            f_unknown = get_int (mem "unknown_states" f);
          })
        (get_list (mem "fsms" j))
    in
    let groups =
      List.map
        (fun g ->
          {
            g_name = get_string (mem "name" g);
            g_bins =
              List.map
                (fun b ->
                  {
                    b_name = get_string (mem "name" b);
                    b_hits = get_int (mem "hits" b);
                    b_goal = get_int (mem "goal" b);
                    b_illegal = get_bool (mem "illegal" b);
                  })
                (get_list (mem "bins" g));
            g_other = get_int (mem "other" g);
          })
        (get_list (mem "groups" j))
    in
    let monitors =
      List.map
        (fun m ->
          {
            m_name = get_string (mem "name" m);
            m_pass = get_int (mem "pass" m);
            m_vacuous = get_int (mem "vacuous" m);
            m_fail = get_int (mem "fail" m);
          })
        (get_list (mem "monitors" j))
    in
    Ok { runs; toggles; fsms; groups; monitors }
  with Bad msg -> Error msg

let save db path = Json.save (to_json db) path

let load path =
  Result.bind (Json.load path) (fun j ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json j))

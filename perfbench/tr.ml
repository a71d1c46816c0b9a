(* Tracing from outside the program: spans recorded around each call the
   benchmark makes into a layer, plus named counters read as deltas
   around the same calls.  Nothing here switches on the program's own
   instrumentation ([Obs.Span]); spans live in memory and are written
   once, when the run ends.

   Spans are recorded only on the calling domain: work the program
   shards onto pool domains is covered by the span around the call that
   issued it. *)

let now = Unix.gettimeofday

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_stop : float;
  sp_parent : int;  (** index of the enclosing span, -1 at the root *)
}

let enabled = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let stack : int list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

(* [span name f] runs [f] and returns its result with its wall time; the
   span is recorded only while tracing is on, so untraced runs pay one
   branch and two clock reads. *)
let span name f =
  if not !enabled then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = !n_spans in
    let sp = { sp_name = name; sp_start = now (); sp_stop = 0.0; sp_parent = parent } in
    spans := sp :: !spans;
    incr n_spans;
    stack := id :: !stack;
    let finish () =
      sp.sp_stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | r ->
        finish ();
        (r, sp.sp_stop -. sp.sp_start)
    | exception e ->
        finish ();
        raise e
  end

let span_ name f = fst (span name f)

let add name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* Words allocated on the calling domain so far. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [alloc key f] adds the words [f] allocates to counter [key]. *)
let alloc key f =
  if not !enabled then f ()
  else begin
    let w0 = words () in
    let r = f () in
    add key (words () -. w0);
    r
  end

(* Self time per span name: each span's duration minus the time its
   direct children cover (children never overlap on one domain). *)
let self_times () =
  let arr = Array.of_list (List.rev !spans) in
  let self = Array.map (fun sp -> sp.sp_stop -. sp.sp_start) arr in
  Array.iter
    (fun sp ->
      if sp.sp_parent >= 0 then
        self.(sp.sp_parent) <- self.(sp.sp_parent) -. (sp.sp_stop -. sp.sp_start))
    arr;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i sp ->
      let busy, calls =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl sp.sp_name)
      in
      Hashtbl.replace tbl sp.sp_name (busy +. self.(i), calls + 1))
    arr;
  tbl

(* Time covered by root spans within the traced region. *)
let covered () =
  List.fold_left
    (fun acc sp ->
      if sp.sp_parent < 0 then acc +. (sp.sp_stop -. sp.sp_start) else acc)
    0.0 !spans

(* Chrome trace-event JSON of every recorded span. *)
let write path ~meta =
  let arr = Array.of_list (List.rev !spans) in
  let t0 = if Array.length arr > 0 then arr.(0).sp_start else 0.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  Array.iteri
    (fun i sp ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        sp.sp_name
        ((sp.sp_start -. t0) *. 1e6)
        ((sp.sp_stop -. sp.sp_start) *. 1e6)
        i sp.sp_parent)
    arr;
  Printf.fprintf oc "\n],\"metadata\":%s}\n" meta;
  close_out oc

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Operations checked against a reference: a disagreement counts as a
   failed operation and the run goes on. *)
let attempted = ref 0
let failed = ref 0

let check ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 20 then Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Host speed probe: a fixed mix of array, hash-table and allocation work
   that belongs to the benchmark, not to the program under test.  The
   machine's speed drifts by tens of percent from minute to minute; the
   probe, timed before every repetition, measures that drift so that
   wall-clock times are reported as they would read at host speed index
   1, the speed at which the probe takes [probe_ref_s]. *)
let probe_kernel () =
  let n = 8192 in
  let a = Array.init n (fun i -> (i * 40503) land 0xffff) in
  let h = Hashtbl.create 512 in
  let acc = ref [] in
  for i = 0 to 60_000 do
    let j = (i * 7919) land (n - 1) in
    let v = (a.(j) lxor (a.((j + 61) land (n - 1)) lsl 1)) land 0xffff in
    a.(j) <- v;
    if v land 3 = 0 then Hashtbl.replace h (v land 1023) i;
    if v land 15 = 0 then acc := (v, i) :: !acc;
    if i land 4095 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity (a, h, !acc))

let probe_ref_s = 0.001

let last_probe = ref probe_ref_s
let probes = ref []

(* An allocation-free loop, so that domains running it at once never
   wait for each other's collections. *)
let spin () =
  let acc = ref 0 in
  for i = 1 to 3_000_000 do
    acc := (!acc * 31) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !acc)

let fastest n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = now () in
    f ();
    best := Float.min !best (now () -. t0)
  done;
  !best

(* The kernel's time on the calling domain, fastest of three.  With
   [domains] > 1 it is scaled by how much longer [spin] takes on that
   many domains at once than on one: work sharded over the domains runs
   at half speed when only one processor is free, which a probe on one
   domain cannot see. *)
let probe ?(domains = 1) () =
  let t = fastest 3 probe_kernel in
  let t =
    if domains = 1 then t
    else
      let alone = fastest 3 spin in
      let together =
        fastest 3 (fun () ->
            let others = List.init (domains - 1) (fun _ -> Domain.spawn spin) in
            spin ();
            List.iter Domain.join others)
      in
      t *. Float.max 1.0 (together /. alone)
  in
  last_probe := t;
  probes := t :: !probes

(* A wall time measured since the last probe, at host speed index 1. *)
let at_ref t = t *. (probe_ref_s /. !last_probe)

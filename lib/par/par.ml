exception
  Shard_failure of {
    shard : int;
    label : string;
    exn : exn;
    backtrace : string;
  }

let () =
  Printexc.register_printer (function
    | Shard_failure { shard; label; exn; _ } ->
        Some
          (Printf.sprintf "Par.Shard_failure(shard %d [%s]: %s)" shard label
             (Printexc.to_string exn))
    | _ -> None)

(* Campaign-runtime movement counters and the per-shard wall-clock
   histogram, visible in run reports next to the simulator figures. *)
let ctr_batches = Perf.counter "par.batches"
let ctr_shards = Perf.counter "par.shards"
let h_shard_ms = Obs.Hist.histogram "par.shard_ms"

let default =
  let initial =
    match Sys.getenv_opt "OSSS_JOBS" with
    | Some s -> ( match int_of_string_opt s with Some n -> max 1 n | None -> 1)
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  Atomic.make initial

let default_jobs () = Atomic.get default
let set_default_jobs n = Atomic.set default (max 1 n)

let chunks ~shards xs =
  let n = List.length xs in
  let s = max 1 (min shards (max 1 n)) in
  let arr = Array.of_list xs in
  Array.init s (fun i ->
      let lo = i * n / s and hi = (i + 1) * n / s in
      Array.to_list (Array.sub arr lo (hi - lo)))

let default_label i = "shard-" ^ string_of_int i

(* True on a domain while it runs a shard: a map issued from inside
   one runs inline instead of spawning domains of its own. *)
let in_shard = Domain.DLS.new_key (fun () -> false)

(* Run shard [i], timing it into the histogram; a raise comes back as
   the [Shard_failure] that names the shard. *)
let run_shard ~label f i =
  Perf.incr ctr_shards;
  let t0 = Unix.gettimeofday () in
  let outer = Domain.DLS.get in_shard in
  Domain.DLS.set in_shard true;
  match f i with
  | v ->
      Domain.DLS.set in_shard outer;
      if Obs.Hist.enabled () then
        Obs.Hist.observe h_shard_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
      v
  | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Domain.DLS.set in_shard outer;
      raise (Shard_failure { shard = i; label = label i; exn = e; backtrace })

let map ?jobs ?(label = default_label) f n =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  if n = 0 then [||]
  else begin
    Perf.incr ctr_batches;
    if jobs = 1 || n = 1 || Domain.DLS.get in_shard then
      (* Inline: exactly a plain [Array.init], stopping at the first
         failure — which is what makes --jobs 1 bit-identical to a
         serial loop. *)
      Array.init n (run_shard ~label f)
    else begin
      (* Every participant, the caller included, claims the next
         unstarted shard off one counter; shard [i] writes slot [i].
         After the first failure, unstarted shards are skipped. *)
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failed = Atomic.make None in
      let rec work () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Option.is_none (Atomic.get failed) then begin
          (match run_shard ~label f i with
          | v -> results.(i) <- Some v
          | exception e ->
              ignore (Atomic.compare_and_set failed None (Some e)));
          work ()
        end
      in
      let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn work) in
      work ();
      List.iter Domain.join helpers;
      match Atomic.get failed with
      | Some e -> raise e
      | None -> Array.map Option.get results
    end
  end

let map_list ?jobs ?label f xs =
  let arr = Array.of_list xs in
  Array.to_list (map ?jobs ?label (fun i -> f arr.(i)) (Array.length arr))

type t = { cname : string; count : int Atomic.t }

(* Counters are bumped from campaign shards running on pool domains
   (Par), so the counts are atomics and the name→counter registry is
   mutex-protected.  [counter] is called once per site (toplevel
   handles) or per flow pass — never on a simulation hot path — so the
   lock is uncontended where it matters. *)
let lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = { cname = name; count = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c)

let add c n = ignore (Atomic.fetch_and_add c.count n)
let incr ?(by = 1) c = add c by
let value c = Atomic.get c.count
let name c = c.cname
let reset c = Atomic.set c.count 0

let reset_all () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.count 0) registry)

let all () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.count) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Scoped observation: counters are process-global, so concurrent
   engine runs (e.g. the lockstep phases of Backend.Equiv) cannot
   reset them mid-run without clobbering each other.  A snapshot
   captures every registered counter; diffing two snapshots (or a
   snapshot against the live registry) attributes the delta to the
   phase between them. *)
type snapshot = (string * int) list

let snapshot () = all ()

let diff ~before ~after =
  List.filter_map
    (fun (name, v_after) ->
      let v_before = Option.value ~default:0 (List.assoc_opt name before) in
      if v_after <> v_before then Some (name, v_after - v_before) else None)
    after

let since before = diff ~before ~after:(snapshot ())

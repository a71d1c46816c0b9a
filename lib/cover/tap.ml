type t = { change : int -> rising:bool -> unit; cycle_end : unit -> unit }

let rec change_all subs slot ~rising =
  match subs with
  | [] -> ()
  | s :: rest ->
      s.change slot ~rising;
      change_all rest slot ~rising

let cycle_end_all subs = List.iter (fun s -> s.cycle_end ()) subs

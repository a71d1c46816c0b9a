type t = {
  names : string array;
  rises : int array;
  falls : int array;
}

let create ~names =
  let n = Array.length names in
  { names; rises = Array.make n 0; falls = Array.make n 0 }

let record t i ~rising =
  if rising then t.rises.(i) <- t.rises.(i) + 1
  else t.falls.(i) <- t.falls.(i) + 1

let tap t = { Tap.change = record t; cycle_end = ignore }

let bits t = Array.length t.names
let name t i = t.names.(i)
let rises t i = t.rises.(i)
let falls t i = t.falls.(i)

let covered t =
  let n = ref 0 in
  for i = 0 to bits t - 1 do
    if t.rises.(i) > 0 && t.falls.(i) > 0 then incr n
  done;
  !n

let touched t =
  let n = ref 0 in
  for i = 0 to bits t - 1 do
    if t.rises.(i) > 0 || t.falls.(i) > 0 then incr n
  done;
  !n

let coverage t =
  let b = bits t in
  if b = 0 then 1.0 else float_of_int (covered t) /. float_of_int b

let activity t =
  List.filter_map
    (fun i ->
      let n = t.rises.(i) + t.falls.(i) in
      if n > 0 then Some (t.names.(i), n) else None)
    (List.init (bits t) Fun.id)

let uncovered ?(k = 10) t =
  let out = ref [] in
  let left = ref k in
  (try
     for i = 0 to bits t - 1 do
       if !left = 0 then raise Exit;
       if not (t.rises.(i) > 0 && t.falls.(i) > 0) then begin
         out := t.names.(i) :: !out;
         decr left
       end
     done
   with Exit -> ());
  List.rev !out

let schema_version = "osss.run-report/v3"
let schema_v2 = "osss.run-report/v2"
let schema_v1 = "osss.run-report/v1"

let make ?(profiles = []) ?coverage ?power ?(extra = []) ~run () =
  Json.Obj
    ([
       ("schema", Json.String schema_version);
       ("run", Json.String run);
       ( "counters",
         Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (Perf.all ())) );
       ("histograms", Hist.all_to_json ());
       (* Kept empty so v1-v3 documents stay unchanged. *)
       ("gauges", Json.Obj []);
       ("spans", Span.to_json ());
       ( "profiles",
         Json.Obj (List.map (fun (n, entries) -> (n, Profile.to_json entries)) profiles)
       );
     ]
    @ (match coverage with Some c -> [ ("coverage", c) ] | None -> [])
    @ (match power with Some p -> [ ("power", p) ] | None -> [])
    @ extra)

(* Structural schema check.  Every producer and the CI validation step
   go through this single definition, so the schema cannot silently
   drift from its checker.  v1 documents (no coverage section) stay
   valid; v2 adds an optional "coverage" object which, when present,
   must carry a coverage-db schema stamp and list-shaped sections; v3
   adds an optional "power" object with energy/power scalars and
   list-shaped samples/by_module sections.  Sections newer than a
   document's stamp are rejected, so an archived v1/v2 report cannot
   silently carry data its version never defined. *)
let validate json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field name =
    match Json.member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* schema = field "schema" in
  let* version =
    match Json.string_value schema with
    | Some s when s = schema_version -> Ok 3
    | Some s when s = schema_v2 -> Ok 2
    | Some s when s = schema_v1 -> Ok 1
    | Some s ->
        Error
          (Printf.sprintf "schema %S, expected %S, %S or %S" s schema_version
             schema_v2 schema_v1)
    | None -> Error "field \"schema\" is not a string"
  in
  let* _run = field "run" in
  let obj_of name =
    let* v = field name in
    match v with
    | Json.Obj fields -> Ok fields
    | _ -> Error (Printf.sprintf "field %S is not an object" name)
  in
  let* counters = obj_of "counters" in
  let* () =
    match
      List.find_opt (fun (_, v) -> match v with Json.Int _ -> false | _ -> true) counters
    with
    | Some (n, _) -> Error (Printf.sprintf "counter %S is not an integer" n)
    | None -> Ok ()
  in
  let* histograms = obj_of "histograms" in
  let* () =
    match
      List.find_opt
        (fun (_, h) ->
          match (Json.member "count" h, Json.member "buckets" h) with
          | Some (Json.Int _), Some (Json.List _) -> false
          | _ -> true)
        histograms
    with
    | Some (n, _) -> Error (Printf.sprintf "histogram %S lacks count/buckets" n)
    | None -> Ok ()
  in
  let* _gauges = obj_of "gauges" in
  let* spans = field "spans" in
  let* () =
    match spans with
    | Json.List _ -> Ok ()
    | _ -> Error "field \"spans\" is not a list"
  in
  let* profiles = obj_of "profiles" in
  let* () =
    match
      List.find_opt
        (fun (_, p) -> match p with Json.List _ -> false | _ -> true)
        profiles
    with
    | Some (n, _) -> Error (Printf.sprintf "profile %S is not a list" n)
    | None -> Ok ()
  in
  let* () =
    match (version, Json.member "coverage" json) with
    | 1, Some _ -> Error "v1 report carries a \"coverage\" section"
    | _, None -> Ok ()
    | _, Some cov ->
        let* () =
          match cov with
          | Json.Obj _ -> Ok ()
          | _ -> Error "field \"coverage\" is not an object"
        in
        let* () =
          match Json.member "schema" cov with
          | Some (Json.String s)
            when String.length s >= 17
                 && String.sub s 0 17 = "osss.coverage-db/" ->
              Ok ()
          | Some _ -> Error "coverage schema is not a coverage-db stamp"
          | None -> Error "coverage section lacks a schema stamp"
        in
        let section name =
          match Json.member name cov with
          | Some (Json.List _) -> Ok ()
          | Some _ -> Error (Printf.sprintf "coverage %S is not a list" name)
          | None -> Error (Printf.sprintf "coverage section lacks %S" name)
        in
        let* () = section "toggles" in
        let* () = section "fsms" in
        let* () = section "groups" in
        section "monitors"
  in
  match (version, Json.member "power" json) with
  | (1 | 2), Some _ ->
      Error
        (Printf.sprintf "v%d report carries a \"power\" section" version)
  | _, None -> Ok ()
  | _, Some pow ->
      let* () =
        match pow with
        | Json.Obj _ -> Ok ()
        | _ -> Error "field \"power\" is not an object"
      in
      let scalar name =
        match Json.member name pow with
        | Some (Json.Float _ | Json.Int _) -> Ok ()
        | Some _ -> Error (Printf.sprintf "power %S is not a number" name)
        | None -> Error (Printf.sprintf "power section lacks %S" name)
      in
      let* () = scalar "total_energy_pj" in
      let* () = scalar "avg_mw" in
      let* () = scalar "peak_mw" in
      let section name =
        match Json.member name pow with
        | Some (Json.List _) -> Ok ()
        | Some _ -> Error (Printf.sprintf "power %S is not a list" name)
        | None -> Error (Printf.sprintf "power section lacks %S" name)
      in
      let* () = section "samples" in
      section "by_module"

let validate_string text =
  match Json.of_string text with
  | exception Json.Parse_error msg -> Error ("not valid JSON: " ^ msg)
  | json -> validate json

let validate_file path = Result.bind (Json.read_file path) validate_string

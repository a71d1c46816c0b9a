(** Consolidated, schema-versioned run reports.

    One JSON document per run gathering every observability dimension:
    Perf counters, histograms, gauges, the span tree and activity
    profiles, plus caller-supplied sections (pass tables, benchmark
    results).  CI diffs these between commits; {!validate} is the
    single schema definition both producers and the CI check use. *)

val schema_version : string
(** Currently ["osss.run-report/v3"]. *)

val schema_v2 : string
(** ["osss.run-report/v2"] — before the power section was added; still
    accepted by {!validate}. *)

val schema_v1 : string
(** ["osss.run-report/v1"] — before the coverage section was added;
    still accepted by {!validate} so archived reports keep
    validating. *)

val make :
  ?profiles:(string * Profile.entry list) list ->
  ?coverage:Json.t ->
  ?power:Json.t ->
  ?extra:(string * Json.t) list ->
  run:string ->
  unit ->
  Json.t
(** Snapshot the global registries ([Perf], [Hist], [Span]) into a
    report labeled [run]; the schema's ["gauges"] object is always
    empty.  [coverage] embeds a coverage-db
    document (see [Cover.Db.to_json]) as the ["coverage"] section;
    [power] embeds a dynamic-power report (see [Synth.Power_dyn.to_json])
    as the v3 ["power"] section.  [extra] fields are appended at the
    top level (keys must not collide with the schema's own). *)

val validate : Json.t -> (unit, string) result
(** Check a document against [schema_version], [schema_v2] or
    [schema_v1]: exact schema string, integer counters, histograms with
    count/buckets, object-shaped gauges/profiles, list-shaped spans; on
    v2+, an optional ["coverage"] object stamped with a coverage-db
    schema and carrying list-shaped toggles/fsms/groups/monitors
    sections; on v3, an optional ["power"] object with
    total_energy_pj/avg_mw/peak_mw numbers and list-shaped
    samples/by_module.  Sections newer than the document's stamp are
    rejected. *)

val validate_string : string -> (unit, string) result

val validate_file : string -> (unit, string) result
(** {!validate_string} of a file's contents; [Error] also when the
    file cannot be read. *)

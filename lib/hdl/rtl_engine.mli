(** {!Engine} adapter for the RTL interpreter ({!Rtl_sim}).

    [kind] is ["rtl-interp"]; ports come from the (flattened) design,
    [stats] exposes the interpreter's activity counters. *)

val create : ?label:string -> Ir.module_def -> Engine.t

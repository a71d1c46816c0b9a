(** The word-parallel name of {!Nl_sim}: the same engine, with lanes
    given explicitly ([create ~lanes nl]). *)

include module type of struct
  include Nl_sim
end

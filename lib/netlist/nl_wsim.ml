include Nl_sim

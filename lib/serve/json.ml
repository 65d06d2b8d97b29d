include Lattice_obs.Json

(** Circuit netlists.

    A netlist is built imperatively: create it, ask for nodes by name (the
    ground node is ["0"]), and add elements. Unknowns of the MNA system are
    the non-ground node voltages followed by one branch current per voltage
    source. *)

type node = int
(** 0 is ground; positive values are circuit nodes. *)

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Vsource of { name : string; npos : node; nneg : node; wave : Source.t; index : int }
  | Isource of { name : string; npos : node; nneg : node; wave : Source.t }
      (** current flows from [npos] through the source to [nneg] *)
  | Mosfet of {
      name : string;
      drain : node;
      gate : node;
      source : node;
      model : Lattice_mosfet.Model.t;
    }

type t

val create : unit -> t

(** [node t name] returns the node with that name, creating it if new.
    ["0"], ["gnd"] and ["GND"] are the ground node. *)
val node : t -> string -> node

(** [find_node t name] looks a node up {e without} creating it — the
    read-only counterpart of {!node}, for diagnostics and probes that
    must not grow the circuit. *)
val find_node : t -> string -> node option

(** [fresh_node t prefix] creates an anonymous internal node. *)
val fresh_node : t -> string -> node

val ground : node

(** Element constructors; values must be positive where physical.
    Each returns unit and registers the element. *)
val resistor : t -> string -> node -> node -> float -> unit

val capacitor : t -> string -> node -> node -> float -> unit
val vsource : t -> string -> node -> node -> Source.t -> unit
val isource : t -> string -> node -> node -> Source.t -> unit

(** [mosfet] adds a level-1 transistor; [mosfet_model] accepts any
    first-class model (level 1 or level 3). *)
val mosfet : t -> string -> drain:node -> gate:node -> source:node -> Lattice_mosfet.Level1.params -> unit

val mosfet_model : t -> string -> drain:node -> gate:node -> source:node -> Lattice_mosfet.Model.t -> unit

(** [num_nodes t] counts non-ground nodes; [num_vsources t] the voltage
    sources; [unknowns t] the MNA system size. *)
val num_nodes : t -> int

val num_vsources : t -> int
val unknowns : t -> int

(** [elements t] lists elements in insertion order. *)
val elements : t -> element list

(** [node_name t n] is the name [n] was created with. *)
val node_name : t -> node -> string

(** [all_node_names t] lists every non-ground node name in id order
    (element [i] names node [i + 1]) — the read-only companion of
    {!node_name} for emitters and clients that replay a circuit without
    touching internals. *)
val all_node_names : t -> string array

(** [node_index n] is the row of node [n] in the MNA system, or [-1] for
    ground. *)
val node_index : node -> int

(** [rebind_vsources t wave_of] is a copy of [t] in which every
    voltage source named [s] with [wave_of s = Some w] carries the wave
    [w]; every other element — current sources included, even one that
    shares the name [s] (deck element names drop the type letter, so
    [V1] and [I1] are both ["1"]) — is shared with [t] unchanged, and node
    names and ids, element order and source indices are identical. So
    the copy has the {!structural_digest}, deck text
    ([Lattice_deck.Deck.emit]) and
    {!Stamp_plan} structure of a netlist built by the same construction
    sequence with those waves, and a plan compiled from [t] rebinds to
    it. The copy has its own node table: creating nodes or adding
    elements on either netlist does not affect the other. It fills
    [t]'s {!wave_free_digest} memo if empty, and the copy carries it, so
    the states of one circuit pay for one digest between them. Costs one
    pass over the elements and a copy of the node table. *)
val rebind_vsources : t -> (string -> Source.t option) -> t

(** [vsource_row t index] is the MNA row of a voltage source's branch
    current. *)
val vsource_row : t -> int -> int

(** [vsource_index t name] looks a voltage source up by element name. *)
val vsource_index : t -> string -> int option

(** [summary t] is a one-line element census for logs. *)
val summary : t -> string

(** [structural_digest t] is a content hash of the circuit: node and
    voltage-source counts plus every element — topology (node ids,
    renumbered by first mention in element order so the digest is
    independent of node {e creation} order and survives an
    export→parse roundtrip through deck text), instance names, exact
    IEEE-754 bit patterns of all values, full waveforms and full MOSFET
    model parameters. Two netlists built by the same construction
    sequence get equal digests; changing any single parameter by as
    little as one ulp (a [sigma_vth] perturbation, a different oxide's
    [kp], one injected defect resistor) changes the digest. [ftl run]
    prints it for a deck. *)
val structural_digest : t -> string

(** {2 Content keys}

    The engine's cache key ({!Lattice_engine.Key.dc_op}) hashes
    {!wave_free_digest} with {!add_vsource_waves}: together they carry
    exactly what {!structural_digest} covers, so two netlists give equal
    key bytes exactly when their structural digests are equal.

    The wave-free digest and the first-mention node order are memoized
    in the netlist. The memo is a pure cache: it never changes a result.
    Every mutation drops it — {!node} creating a node, {!fresh_node},
    and every element constructor — and {!rebind_vsources} copies carry
    it. Two domains that fill it at once compute and store equal values.
    Nothing outlives the netlist. *)

(** [wave_free_digest t] is the raw 16-byte MD5 of what
    {!structural_digest} covers except voltage-source waves. Memoized:
    all input states of one circuit share it. *)
val wave_free_digest : t -> Digest.t

(** [add_vsource_waves b t] appends the canonical bytes of every
    voltage-source wave, in element order — the bytes
    {!structural_digest} hashes for them. *)
val add_vsource_waves : Buffer.t -> t -> unit

(** [to_canonical_order t x] is a copy of the MNA vector [x] (length
    {!unknowns}) with node rows moved from [t]'s ids to first-mention
    order; branch-current rows keep their places (source indices are
    digested). Two netlists with equal {!structural_digest}s map their
    solutions to the same canonical vector, so a cached solution can be
    shared across node numberings. [of_canonical_order] is the inverse.
    Both raise [Invalid_argument] on a vector of another length. *)
val to_canonical_order : t -> Lattice_numerics.Vec.t -> Lattice_numerics.Vec.t

val of_canonical_order : t -> Lattice_numerics.Vec.t -> Lattice_numerics.Vec.t

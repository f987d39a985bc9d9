(** Heterogeneous data-migration instances (the paper's Section III).

    An instance is a transfer multigraph [G = (V, E)] — nodes are
    disks, each edge one unit-size item to move between two disks —
    together with a transfer constraint [c_v >= 1] per disk: the number
    of simultaneous transfers disk [v] can take part in.  Self-loops
    are meaningless (an item already on its target) and rejected. *)

type t

(** [create g ~caps] validates and packs an instance.

    [?groups] tags edge [e] with tenant/group id [groups.(e)];
    [?weights] gives each group's SLA priority weight ([>= 1], length
    = number of groups).  Omitting [weights] defaults every group to
    weight one; omitting both yields an untagged instance (one
    implicit group of weight one).
    @raise Invalid_argument if [caps] has wrong length, some capacity
    is [< 1], [g] contains a self-loop, [groups]/[weights] have wrong
    lengths or out-of-range values, or [weights] is given without
    [groups]. *)
val create :
  ?groups:int array ->
  ?weights:int array ->
  Mgraph.Multigraph.t ->
  caps:int array ->
  t

(** All disks share one constraint — the homogeneous special case. *)
val uniform : Mgraph.Multigraph.t -> cap:int -> t

(** Random capacities drawn uniformly from [choices] (device
    generations of a grown cluster). *)
val random_caps :
  Random.State.t -> Mgraph.Multigraph.t -> choices:int list -> t

val graph : t -> Mgraph.Multigraph.t
val cap : t -> int -> int
val caps : t -> int array
val n_disks : t -> int
val n_items : t -> int

(** True iff the instance carries explicit tenant/group tags. *)
val tagged : t -> bool

(** Number of tenant groups; [1] for untagged instances. *)
val n_groups : t -> int

(** [group t e] is edge [e]'s group id ([0] when untagged). *)
val group : t -> int -> int

(** [weight t g] is group [g]'s SLA weight ([1] when untagged). *)
val weight : t -> int -> int

(** Per-edge group ids, length {!n_items} (all zero when untagged). *)
val groups : t -> int array

(** Per-group weights, length {!n_groups} ([[|1|]] when untagged). *)
val weights : t -> int array

(** True iff every [c_v] is even — the polynomially-optimal case of
    the paper's Section IV. *)
val all_caps_even : t -> bool

(** [degree_ratio t v] is [ceil (d_v / c_v)], node [v]'s term of the
    paper's first lower bound. *)
val degree_ratio : t -> int -> int

(** Serialization: header ["n m"], a line of [n] capacities, then [m]
    edge lines — the format the CLI reads and writes.  Untagged
    instances render byte-identically to the legacy format.  Tagged
    instances insert ["groups k"] plus a line of [k] weights after the
    capacities and emit ["u v g"] edge triples. *)
val to_string : t -> string

(** @raise Failure on malformed input. *)
val of_string : string -> t

(** One connected component of an instance, with the index maps back
    into the parent: [nodes.(v')] ([edges.(e')]) is the parent node
    (edge) id of component node [v'] (edge [e']).  Both maps are
    strictly increasing. *)
type component = {
  instance : t;
  nodes : int array;
  edges : int array;
}

(** [decompose t] splits [t] into its connected components — the
    pipeline's unit of solving.  Isolated disks form single-node,
    zero-item components (planners skip them, but the caps survive the
    round trip).  A connected instance decomposes into one component
    whose [instance] is [t] itself and whose maps are the identity.
    Order follows {!Mgraph.Traversal.components} (discovery order by
    node id).  Group tags survive: each component keeps its edges'
    global group ids and the full weight table. *)
val decompose : t -> component list

(** [active_components t] is [(k, active)]: [k] is the length of
    {!decompose}[ t], and [active] lists the entries of {!decompose}[ t]
    that hold at least one item, in order, each paired with its index
    in that list.  The item-free components (isolated disks) are
    counted but not built, so the cost follows the items, not the
    disks. *)
val active_components : t -> int * (int * component) list

val pp : Format.formatter -> t -> unit

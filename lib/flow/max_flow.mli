(** Maximum flow (Dinic's algorithm).

    Used by the even-capacity scheduler to extract the exact
    [c_v/2]-matchings of the paper's Figure 3 flow network, and by the
    degree-constrained-subgraph helper {!Bmatching}. *)

(** A residual network in raw CSR form, with its per-node scratch.
    Row [v] is [arc_ids.(offsets.(v)) .. arc_ids.(offsets.(v+1) - 1)];
    [dsts] and [caps] are indexed by arc id, and arc [a lxor 1] is the
    reverse of arc [a].  [level] and [cursor] are per-node scratch. *)
type csr = {
  offsets : int array;
  arc_ids : int array;
  dsts : int array;
  caps : int array;  (** residual capacities, updated in place *)
  level : int array;
  cursor : int array;
}

(** [solve_csr g ~queue ~s ~t] is Dinic's algorithm from [s] to [t]
    that never expands [t].  It augments [g.caps] in place and returns
    the flow value.

    Preconditions: [g.level.(s) = g.level.(t) = 0], and every other
    node reachable from [s] has level [-1].  The run never writes the
    levels of [s] and [t], and puts every other level it sets back to
    [-1].  [queue] must hold one slot per node reachable from [s], [s]
    and [t] excluded.

    ["flow.bfs_phases"] counts level graphs that reach [t], and
    ["flow.augmenting_paths"] counts pushes out of [s] that carry flow.
    Allocates nothing beyond a few closures per call. *)
val solve_csr : csr -> queue:int array -> s:int -> t:int -> int

(** [max_flow net ~s ~t] augments [net] in place to a maximum [s]-[t]
    flow and returns its value: {!solve_csr} with arena scratch.  Complexity O(V^2 E); O(E sqrt V) on
    unit-capacity bipartite networks, the case this repo exercises. *)
val max_flow : Flow_network.t -> s:int -> t:int -> int

(** [min_cut net ~s] after a {!max_flow} run: the set of nodes residual-
    reachable from [s].  Arcs leaving the set certify optimality. *)
val min_cut : Flow_network.t -> s:int -> bool array

(** Checks flow conservation at every node except [s] and [t]; exposed
    for tests. *)
val conservation_ok : Flow_network.t -> s:int -> t:int -> bool

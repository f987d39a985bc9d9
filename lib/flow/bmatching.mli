(** Degree-constrained subgraphs of bipartite graphs via max-flow.

    This is the workhorse of the paper's Section IV, step 4: given the
    Euler-oriented bipartite graph [H] on [v_out]/[v_in] copies, extract
    a subgraph in which node [v] has degree exactly [c_v / 2] on both
    sides (a "[c_v/2]-matching").  The reduction is the flow network of
    the paper's Figure 3: source → left nodes with capacity [left_cap],
    unit-capacity arcs for edges, right nodes → sink with capacity
    [right_cap]. *)

(** {1 The reusable network} *)

(** The Figure-3 network over a fixed edge set, built once and solved
    any number of times over subsets of its edges.  Nodes, arcs,
    capacities and rows are int arrays; a solve rewrites the rows and
    resets the capacities in place, and allocates nothing. *)
type net

(** [network ~n_left ~n_right ~left_cap ~right_cap ~src ~dst]: edge
    [e] joins left node [src.(e)] to right node [dst.(e)].  The arrays
    are kept, not copied.
    @raise Invalid_argument on a length mismatch, a negative capacity
    or an endpoint out of range. *)
val network :
  n_left:int ->
  n_right:int ->
  left_cap:int array ->
  right_cap:int array ->
  src:int array ->
  dst:int array ->
  net

(** [solve net edges ~len] computes a largest subgraph of the distinct
    edges [edges.(0) .. edges.(len-1)] that respects both capacity
    vectors, and returns its size; read the selection with
    {!selected}.  The edge order is the order of the network's rows,
    so it decides which maximum subgraph is found, exactly as for a
    network built afresh with the edges in that order.  One Dinic run
    on the caller's domain. *)
val solve : net -> int array -> len:int -> int

(** [selected net e]: whether edge [e] is in the subgraph found by the
    last {!solve}; meaningful only for the edges of that solve. *)
val selected : net -> int -> bool

(** {1 One-shot problems} *)

type problem = {
  n_left : int;
  n_right : int;
  left_cap : int array;   (** length [n_left] *)
  right_cap : int array;  (** length [n_right] *)
  edges : (int * int) array;
      (** [(l, r)] pairs; parallel pairs are distinct edges *)
}

(** Largest subgraph respecting both capacity vectors: {!solve} over a
    network of [edges], in order.  Returns the selection mask (indexed
    like [edges]) and its size.
    @raise Invalid_argument as {!network}. *)
val solve_max : problem -> bool array * int

(** A subgraph in which every left node [l] has degree exactly
    [left_cap.(l)] and every right node [r] exactly [right_cap.(r)];
    [None] if no such subgraph exists (requires
    [sum left_cap = sum right_cap]).
    @raise Invalid_argument as {!network}, whatever the sums. *)
val solve_exact : problem -> bool array option

(** Degrees induced by a selection mask; exposed for tests. *)
val degrees : problem -> bool array -> int array * int array

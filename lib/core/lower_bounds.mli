(** Lower bounds on the optimal number of migration rounds
    (the paper's Section III-A).

    [LB1 = max_v ceil(d_v / c_v)]: disk [v] needs at least
    [d_v / c_v] rounds for its own transfers.

    [LB2 = Γ = max_S ceil(|E(S)| / floor(Σ_{v∈S} c_v / 2))]
    (Lemma 3.1): the transfers inside a node set [S] can consume at
    most [floor(Σ c_v / 2)] edge slots per round.

    Maximizing over all [2^|V|] subsets is intractable in general, so
    [lb2] combines: the whole graph and every connected component
    (always), exact subset enumeration on components of at most
    [exact_limit] nodes (subset-DP, [O(2^k k)]), and randomized greedy
    local search elsewhere ({!local_search}).  Every value returned is
    a {e certified} lower bound — it is the [Γ]-term of some concrete
    subset — only its tightness is best-effort.

    Cost: the component terms take one pass over the edges plus the
    subset DP; the search takes [O(n)] set-up and then, per iteration,
    at most [min n 40] steps of [O(frontier + deg x)] each, where [x]
    is the node that joins.

    {b Ordering contract.}  The search's witness, and the draws it
    leaves on the caller's RNG, are pinned by the golden hetero
    schedules, so its tie-breaks are part of its behaviour: among the
    frontier nodes of highest gain it takes the one a gain [Hashtbl]
    rebuilt at each step would fold first.  That is the lowest bucket
    [Hashtbl.hash x land (b - 1)], where [b] starts at 16 and doubles
    while the frontier exceeds [2b]; within a bucket, the node a scan
    of the members (in table order, each member's edges in incidence
    order) meets last.  This relies on [Hashtbl] not being randomized:
    nothing in the repository calls [Hashtbl.randomize], and
    [OCAMLRUNPARAM] must not set [R]. *)

val lb1 : Instance.t -> int

(** [gamma_term inst s] is [ceil(|E(S)| / floor(Σ c_v / 2))] for the
    explicit node list [s] (no duplicates; at least one node with an
    incident edge inside [s] for a nonzero value). *)
val gamma_term : Instance.t -> int list -> int

(** Best [Γ]-term found; see module doc for the search strategy. *)
val lb2 :
  ?rng:Random.State.t -> ?exact_limit:int -> ?search_iters:int ->
  Instance.t -> int

(** Like {!lb2}, but also returns the witness subset achieving the
    bound (empty when the bound is 0).  The witness is what the
    forwarding planner targets: transfers inside it are the bottleneck
    that relaying through outside disks can relieve. *)
val lb2_witness :
  ?rng:Random.State.t -> ?exact_limit:int -> ?search_iters:int ->
  Instance.t -> int * int list

(** [local_search inst rng iters] is the randomized greedy
    densest-subset search of {!lb2}: [iters] times, draw one seed edge
    with [Random.State.int rng m] and grow a subset from it by up to
    [min n 40] frontier nodes, highest gain first (ties as in the
    ordering contract above).  Returns the best [Γ]-term seen and its
    subset, listed in reverse fold order of the member table; [(0, [])]
    on an edgeless graph, which draws nothing. *)
val local_search : Instance.t -> Random.State.t -> int -> int * int list

(** [max (lb1 inst) (lb2 inst)] — the bound every experiment reports
    ratios against. *)
val lower_bound :
  ?rng:Random.State.t -> ?exact_limit:int -> ?search_iters:int ->
  Instance.t -> int

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
    [exact_limit] nodes (subset-DP, [O(2^k)]), and randomized greedy
    local search elsewhere ({!local_search}).  Every value returned is
    a {e certified} lower bound — it is the [Γ]-term of some concrete
    subset — only its tightness is best-effort.

    Cost: the component terms take one pass over the edges plus the
    subset DP.  The search takes [O(n)] set-up; then each iteration
    takes at most [min n 40] steps.  A step picks among the live
    frontier nodes (touched, not yet members) in [O(live)], then joins
    the pick [x] in [O(deg x)]; a tie on the pick also reads the rows
    of the tied candidates.  Seeds are drawn as always, but three
    kinds of iteration stop early or do not run, none of which can
    change the result:
    - a seed edge in an exactly solved component is not run: it could
      not beat that component's exact term;
    - a seed whose ordered endpoint pair [(u, v)] already ran in this
      call is not run: it would replay that iteration's subsets;
    - an iteration stops once
      [Γ(edges of the seed's component, capsum + 1)] is at most the
      larger of the best term seen and the component terms: a larger
      subset stays in that component and has a capacity sum of at
      least [capsum + 1].
    When every component is solved exactly, the search only draws its
    seeds.

    {b Ordering contract.}  The search's witness, and the draws it
    leaves on the caller's RNG, are pinned by the golden hetero
    schedules, so its tie-breaks are part of its behaviour.  They are
    those of a gain [Hashtbl] (and a member [Hashtbl]) rebuilt at each
    step and folded.  Both tables start at 16 buckets and double while
    they hold more than twice their bucket count; a node's bucket is
    [Hashtbl.hash x land (b - 1)].  The pick is the frontier node with
    the least [(-gain, gain-table bucket)].  Among several such nodes
    it is the one with the greatest rank key, where a candidate's key
    is the least, over its edges [e] to members [w], of
    [(w's member-table bucket, w's join order newest first, id of e)]
    — the first point at which a scan of the members in table order,
    each member's edges in id order, meets it.  The witness lists the
    member table's fold order (bucket ascending, newest first within
    a bucket) reversed.  This relies on [Hashtbl] not being
    randomized: nothing in the repository calls [Hashtbl.randomize],
    and [OCAMLRUNPARAM] must not set [R]. *)

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
    that relaying through outside disks can relieve.
    @raise Invalid_argument if [exact_limit > 24] (the subset DP keeps
    tables of [2^exact_limit] entries). *)
val lb2_witness :
  ?rng:Random.State.t -> ?exact_limit:int -> ?search_iters:int ->
  Instance.t -> int * int list

(** [local_search inst rng iters] is the randomized greedy
    densest-subset search of {!lb2}: [iters] times, draw one seed edge
    with [Random.State.int rng m] and grow a subset from it by up to
    [min n 40] frontier nodes, highest gain first (ties as in the
    ordering contract above).  Repeated seed pairs and the stopping
    rule apply as above, with the whole graph's edge count in place of
    the component's and no component terms.  Returns the best
    [Γ]-term seen and its subset, listed in reverse fold order of the
    member table; [(0, [])] on an edgeless graph, which draws
    nothing. *)
val local_search : Instance.t -> Random.State.t -> int -> int * int list

(** [max (lb1 inst) (lb2 inst)] — the bound every experiment reports
    ratios against. *)
val lower_bound :
  ?rng:Random.State.t -> ?exact_limit:int -> ?search_iters:int ->
  Instance.t -> int

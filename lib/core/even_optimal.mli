(** Optimal migration scheduling for even transfer constraints
    (the paper's Section IV, Theorem 4.1).

    When every [c_v] is even, a schedule using exactly
    [Δ̄ = max_v ceil(d_v / c_v)] rounds — the first lower bound, hence
    optimal — always exists and is computable in polynomial time:

    + pad the transfer graph with self-loops and dummy edges until
      every node has degree exactly [c_v * Δ̄] (even);
    + orient all edges along Euler circuits;
    + form the bipartite graph [H] on [v_out]/[v_in] copies, where both
      copies of [v] have degree [c_v * Δ̄ / 2];
    + decompose [H] into [Δ̄] spanning sub-graphs in which [v] appears
      exactly [c_v] times — each is one feasible round.

    Step 4 is the paper's verbatim: extract [Δ̄] successive exact
    [c_v/2]-degree subgraphs of [H] by max-flow (the Figure 3
    network).  Feasibility at every iteration is the paper's
    Lemma 4.1/4.2, checked at runtime: a round whose flow value falls
    short of [Σ c_v/2] fails loudly instead of mis-scheduling.  The
    network is built once per call ({!Netflow.Bmatching.network}) and
    every round re-solves it over the surviving edges. *)

(** [schedule ?jobs inst] is an optimal schedule:
    [n_rounds <= lb1 inst], with equality whenever the instance has
    items (trailing padding-only rounds are dropped).

    Each round is one joint Dinic run on the caller's domain.  [jobs]
    is accepted for the solver interface ({!Solver}) and starts no
    pool, so the schedule is the same at any [jobs]: a worker pool
    started per call costs more than the rounds' parallel share saves.
    @raise Invalid_argument if some [c_v] is odd. *)
val schedule : ?jobs:int -> Instance.t -> Schedule.t

(** Steps 1-3 for [delta] rounds: the Euler orientation of the padded
    graph, as parallel [(src, dst)] arrays.  Edges [0 .. m-1] are the
    instance's items in order; the rest are padding.  Exposed for
    tests. *)
val padded_orientation : Instance.t -> int -> int array * int array

(** The paper's general algorithm (Section V): capacitated
    multigraph edge coloring with a [(1 + o(1))]-approximation target.

    The NP-hard arbitrary-[c_v] case is solved in two phases mirroring
    the paper's structure:

    {b Phase 1} starts from a palette of [Δ̄ = LB1] colors and colors
    edges using the moves the paper's orbit lemmas prove available:
    a color missing at both endpoints (trivial progress), capacitated
    Kempe-walk flips that free a color at one endpoint (Lemmas 5.1/5.2
    — the balancing-orbit and color-orbit moves; see
    {!Coloring.Recolor} for why the walks need not be simple), and the
    weak-edge-orbit move of Lemma 5.3 — uncolor an adjacent "lean"
    edge, color the stuck edge, recolor the lean edge.  An edge that
    survives every move is the practical analogue of a hard orbit with
    a witness (Lemma 5.4): it either joins the residual graph [G0]
    (kept simple, as Phase 1 guarantees in the paper) or, if that
    would break [G0]'s simplicity, forces a palette escalation — the
    paper's "increase [q] by one and color the seed" step.

    {b Phase 2} (Section V-C3) splits each node of [G0] into [c_v]
    copies, Vizing-colors the resulting simple graph with at most
    [max_v ceil(d_{G0}(v)/c_v) + 1] fresh colors, and contracts.

    The paper proves palette [<= OPT + O(sqrt OPT)]; this
    implementation reports the achieved palette so experiments measure
    the additive gap directly (EXPERIMENTS.md, E4). *)

type stats = {
  palette : int;      (** total colors = rounds used *)
  lb : int;           (** [max lb1 lb2] certified lower bound *)
  phase2_edges : int; (** edges deferred to the residual graph [G0] *)
  escalations : int;  (** witness-style palette escalations in Phase 1 *)
  swaps : int;        (** successful lean-edge (weak-orbit) moves *)
}

(** [color ?rng inst] is a complete valid capacitated coloring together
    with run statistics.  Deterministic for a fixed [rng] seed. *)
val color :
  ?rng:Random.State.t -> Instance.t -> Coloring.Edge_coloring.t * stats

(** [edge_order inst] is phase 1's edge order: every edge id once,
    hardest first — by descending [degree_ratio u + degree_ratio v]
    over the endpoints, ties by ascending id. *)
val edge_order : Instance.t -> int array

val schedule : ?rng:Random.State.t -> Instance.t -> Schedule.t
val schedule_stats : ?rng:Random.State.t -> Instance.t -> Schedule.t * stats

(** Directed flow networks with integer capacities.

    Arcs are created in pairs: adding an arc also adds its residual
    reverse arc of capacity 0.  Arc [a] and its reverse [a lxor 1]
    always live at adjacent indices, the classic residual-graph
    encoding. *)

type t

val create : n:int -> t
val n_nodes : t -> int

(** [add_arc net ~src ~dst ~cap] returns the id of the forward arc.
    @raise Invalid_argument on a negative capacity or bad endpoint. *)
val add_arc : t -> src:int -> dst:int -> cap:int -> int

val n_arcs : t -> int
(** Counts both forward and residual arcs (always even). *)

val src : t -> int -> int
val dst : t -> int -> int

(** Remaining capacity of an arc (forward or residual). *)
val residual : t -> int -> int

(** Flow currently pushed through a {e forward} arc: the capacity of
    its reverse arc. *)
val flow : t -> int -> int

(** [push net a x] moves [x] units along arc [a] (decreasing its
    residual, increasing the reverse arc's).
    @raise Invalid_argument if [x] exceeds the residual. *)
val push : t -> int -> int -> unit

(** Flat adjacency: row [v] is
    [arc_ids.(offsets.(v)) .. arc_ids.(offsets.(v+1) - 1)], the arcs
    leaving [v] (forward and residual alike) in insertion order.
    [offsets] has length [n+1]. *)
type adj = { offsets : int array; arc_ids : int array }

(** The flat adjacency view, built once and cached; {!add_arc} drops
    the cache.  The arrays must not be written. *)
val freeze : t -> adj

(** [(dsts, caps)] backing arrays for hot kernels: index by arc id,
    valid below {!n_arcs}.  [caps] is the live residual state — a
    kernel writing [caps.(a)]/[caps.(a lxor 1)] performs an unchecked
    {!push}.  Both arrays are invalidated by the next {!add_arc};
    capture them per call. *)
val raw : t -> int array * int array

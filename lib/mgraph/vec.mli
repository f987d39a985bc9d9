(** Growable arrays.

    OCaml 5.1 does not ship [Dynarray]; this is the small subset the
    graph substrate needs.  Elements are stored in a backing array that
    is allocated on the first push and doubles on overflow; a [dummy]
    value fills unused slots. *)

type 'a t

(** [create ~dummy ()] is an empty vector.  [dummy] is never observable
    through the API; it only pads the backing store. *)
val create : dummy:'a -> unit -> 'a t

(** [make ~dummy n x] is a vector of [n] copies of [x]. *)
val make : dummy:'a -> int -> 'a -> 'a t

(** Number of elements. *)
val length : 'a t -> int

(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)
val get : 'a t -> int -> 'a

(** [set v i x] replaces the [i]-th element.  @raise Invalid_argument if
    out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [push v x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

(** [pop v] removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)
val pop : 'a t -> 'a

(** Last element without removing it. *)
val peek : 'a t -> 'a

val is_empty : 'a t -> bool
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val to_array : 'a t -> 'a array

(** The backing array, without copying.  Length is at least {!length};
    only indices below {!length} hold live values.  Any growing push
    replaces the backing store, so hot kernels capture this per call
    and never hold it across mutations. *)
val unsafe_data : 'a t -> 'a array
val exists : ('a -> bool) -> 'a t -> bool
val copy : 'a t -> 'a t

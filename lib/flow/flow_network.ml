type adj = { offsets : int array; arc_ids : int array }

type t = {
  n : int;
  dsts : int Mgraph.Vec.t;          (* per arc *)
  caps : int Mgraph.Vec.t;          (* residual capacity, mutated by push *)
  adj : int Mgraph.Vec.t array;     (* outgoing arc ids per node *)
  srcs : int Mgraph.Vec.t;          (* per arc *)
  mutable frozen : adj option;      (* flat adjacency cache, see freeze *)
}

module Vec = Mgraph.Vec

let create ~n =
  if n < 0 then invalid_arg "Flow_network.create";
  {
    n;
    dsts = Vec.create ~dummy:(-1) ();
    caps = Vec.create ~dummy:0 ();
    adj = Array.init n (fun _ -> Vec.create ~dummy:(-1) ());
    srcs = Vec.create ~dummy:(-1) ();
    frozen = None;
  }

let n_nodes net = net.n

let check_node net v = if v < 0 || v >= net.n then invalid_arg "Flow_network: bad node"

let add_half net ~src ~dst ~cap =
  let a = Vec.length net.dsts in
  ignore (Vec.push net.dsts dst);
  ignore (Vec.push net.srcs src);
  ignore (Vec.push net.caps cap);
  ignore (Vec.push net.adj.(src) a);
  a

let add_arc net ~src ~dst ~cap =
  check_node net src;
  check_node net dst;
  if cap < 0 then invalid_arg "Flow_network.add_arc: negative capacity";
  let a = add_half net ~src ~dst ~cap in
  ignore (add_half net ~src:dst ~dst:src ~cap:0);
  net.frozen <- None;
  a

let n_arcs net = Vec.length net.dsts
let src net a = Vec.get net.srcs a
let dst net a = Vec.get net.dsts a
let residual net a = Vec.get net.caps a
let flow net a = Vec.get net.caps (a lxor 1)

let push net a x =
  let r = residual net a in
  if x < 0 || x > r then invalid_arg "Flow_network.push";
  Vec.set net.caps a (r - x);
  Vec.set net.caps (a lxor 1) (Vec.get net.caps (a lxor 1) + x)

(* Arc ids per row appear in insertion order. *)
let freeze net =
  match net.frozen with
  | Some a -> a
  | None ->
      let n = net.n in
      let offsets = Array.make (n + 1) 0 in
      let total = ref 0 in
      for v = 0 to n - 1 do
        offsets.(v) <- !total;
        total := !total + Vec.length net.adj.(v)
      done;
      offsets.(n) <- !total;
      let arc_ids = Array.make !total (-1) in
      for v = 0 to n - 1 do
        let row = net.adj.(v) in
        let base = offsets.(v) in
        for k = 0 to Vec.length row - 1 do
          arc_ids.(base + k) <- Vec.get row k
        done
      done;
      let a = { offsets; arc_ids } in
      net.frozen <- Some a;
      a

let raw net = (Vec.unsafe_data net.dsts, Vec.unsafe_data net.caps)

type problem = {
  n_left : int;
  n_right : int;
  left_cap : int array;
  right_cap : int array;
  edges : (int * int) array;
}

(* The Figure-3 network over a fixed edge set, as struct-of-arrays int
   arrays.  Node layout: 0 = source, 1 = sink, 2..2+nl-1 = left,
   2+nl.. = right.  Arc 2k is forward and 2k+1 its reverse: arc 2l is
   source -> left l, arc 2(nl+r) is right r -> sink, and edge e is arc
   2(nl+nr+e).  Only the CSR rows and the capacities change from one
   solve to the next. *)
type net = {
  nl : int;
  nr : int;
  lcap : int array;
  rcap : int array;
  esrc : int array;  (* per edge: its left endpoint *)
  edst : int array;  (* per edge: its right endpoint *)
  g : Max_flow.csr;
  queue : int array;  (* BFS queue *)
  count : int array;  (* per node: surviving edges this solve *)
}

let edge_arc net e = 2 * (net.nl + net.nr + e)

let network ~n_left ~n_right ~left_cap ~right_cap ~src ~dst =
  let nl = n_left and nr = n_right and m = Array.length src in
  if Array.length left_cap <> nl || Array.length right_cap <> nr then
    invalid_arg "Bmatching: capacity vector length mismatch";
  if Array.length dst <> m then invalid_arg "Bmatching: endpoint arrays differ";
  let negative = Array.exists (fun c -> c < 0) in
  if negative left_cap || negative right_cap then
    invalid_arg "Bmatching: negative capacity";
  for e = 0 to m - 1 do
    if src.(e) < 0 || src.(e) >= nl || dst.(e) < 0 || dst.(e) >= nr then
      invalid_arg "Bmatching: edge endpoint out of range"
  done;
  let nodes = 2 + nl + nr in
  let dsts = Array.make (2 * (nl + nr + m)) 0 in
  for l = 0 to nl - 1 do
    dsts.(2 * l) <- 2 + l
  done;
  for r = 0 to nr - 1 do
    dsts.((2 * (nl + r)) + 1) <- 2 + nl + r;
    dsts.(2 * (nl + r)) <- 1
  done;
  for e = 0 to m - 1 do
    let a = 2 * (nl + nr + e) in
    dsts.(a) <- 2 + nl + dst.(e);
    dsts.(a + 1) <- 2 + src.(e)
  done;
  let level = Array.make nodes (-1) in
  level.(0) <- 0;
  level.(1) <- 0;
  (* the source row holds one arc per left node; the sink row is empty *)
  let offsets = Array.make (nodes + 1) nl in
  offsets.(0) <- 0;
  {
    nl;
    nr;
    lcap = left_cap;
    rcap = right_cap;
    esrc = src;
    edst = dst;
    g =
      {
        Max_flow.offsets;
        (* the source row, then one source/sink arc and the edge arcs
           per side *)
        arc_ids = Array.make ((2 * nl) + nr + (2 * m)) 0;
        dsts;
        caps = Array.make (2 * (nl + nr + m)) 0;
        level;
        cursor = Array.make nodes 0;
      };
    queue = Array.make nodes 0;
    count = Array.make nodes 0;
  }

let selected net e = net.g.Max_flow.caps.(edge_arc net e + 1) > 0

(* Each solve lays out the rows for [edges.(0..len-1)], in that
   order.  The source row lists every left node in index order; each
   left row starts with its reverse source arc and each right row with
   its sink arc, then the edge arcs follow in edge order: exactly the
   rows of a network built afresh with those edges, so Dinic visits
   arcs in the same order. *)
let solve net edges ~len =
  let { Max_flow.offsets; arc_ids; caps; cursor; _ } = net.g in
  let nl = net.nl and nr = net.nr and count = net.count in
  Array.fill count 0 (Array.length count) 0;
  for i = 0 to len - 1 do
    let e = edges.(i) in
    let u = 2 + net.esrc.(e) and v = 2 + nl + net.edst.(e) in
    count.(u) <- count.(u) + 1;
    count.(v) <- count.(v) + 1
  done;
  for v = 2 to 1 + nl + nr do
    offsets.(v + 1) <- offsets.(v) + 1 + count.(v)
  done;
  for l = 0 to nl - 1 do
    let v = 2 + l in
    arc_ids.(l) <- 2 * l;
    arc_ids.(offsets.(v)) <- (2 * l) + 1;
    cursor.(v) <- offsets.(v) + 1;
    caps.(2 * l) <- net.lcap.(l);
    caps.((2 * l) + 1) <- 0
  done;
  for r = 0 to nr - 1 do
    let v = 2 + nl + r in
    arc_ids.(offsets.(v)) <- 2 * (nl + r);
    cursor.(v) <- offsets.(v) + 1;
    caps.(2 * (nl + r)) <- net.rcap.(r);
    caps.((2 * (nl + r)) + 1) <- 0
  done;
  for i = 0 to len - 1 do
    let e = edges.(i) in
    let a = edge_arc net e in
    let u = 2 + net.esrc.(e) and v = 2 + nl + net.edst.(e) in
    arc_ids.(cursor.(u)) <- a;
    cursor.(u) <- cursor.(u) + 1;
    arc_ids.(cursor.(v)) <- a + 1;
    cursor.(v) <- cursor.(v) + 1;
    caps.(a) <- 1;
    caps.(a + 1) <- 0
  done;
  Max_flow.solve_csr net.g ~queue:net.queue ~s:0 ~t:1

(* The network of [p.edges], in order; validates [p]. *)
let network_of p =
  network ~n_left:p.n_left ~n_right:p.n_right ~left_cap:p.left_cap
    ~right_cap:p.right_cap
    ~src:(Array.map fst p.edges) ~dst:(Array.map snd p.edges)

let solve_all net p =
  let m = Array.length p.edges in
  let value = solve net (Array.init m Fun.id) ~len:m in
  (Array.init m (selected net), value)

let solve_max p = solve_all (network_of p) p

let solve_exact p =
  let net = network_of p in
  let sum a = Array.fold_left ( + ) 0 a in
  let target = sum p.left_cap in
  if target <> sum p.right_cap then None
  else
    let sel, value = solve_all net p in
    if value = target then Some sel else None

let degrees p sel =
  let ld = Array.make p.n_left 0 and rd = Array.make p.n_right 0 in
  Array.iteri
    (fun i (l, r) ->
      if sel.(i) then begin
        ld.(l) <- ld.(l) + 1;
        rd.(r) <- rd.(r) + 1
      end)
    p.edges;
  (ld, rd)

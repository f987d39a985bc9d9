(* Tests for the max-flow substrate: Flow_network, Max_flow,
   Bmatching. *)

module Fn = Netflow.Flow_network
module Mf = Netflow.Max_flow
module Bm = Netflow.Bmatching
open Test_util

(* ------------------------------------------------------------------ *)
(* Flow_network *)

let test_network_basic () =
  let net = Fn.create ~n:3 in
  let a = Fn.add_arc net ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "arc ids pair up" 0 a;
  Alcotest.(check int) "n_arcs counts residuals" 2 (Fn.n_arcs net);
  Alcotest.(check int) "src" 0 (Fn.src net a);
  Alcotest.(check int) "dst" 1 (Fn.dst net a);
  Alcotest.(check int) "residual" 5 (Fn.residual net a);
  Alcotest.(check int) "flow" 0 (Fn.flow net a);
  Fn.push net a 3;
  Alcotest.(check int) "residual after push" 2 (Fn.residual net a);
  Alcotest.(check int) "flow after push" 3 (Fn.flow net a);
  Alcotest.(check int) "reverse residual" 3 (Fn.residual net (a lxor 1))

let test_network_errors () =
  let net = Fn.create ~n:2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Flow_network.add_arc: negative capacity") (fun () ->
      ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:(-1)));
  let a = Fn.add_arc net ~src:0 ~dst:1 ~cap:2 in
  Alcotest.check_raises "overpush" (Invalid_argument "Flow_network.push")
    (fun () -> Fn.push net a 3)

(* ------------------------------------------------------------------ *)
(* Max_flow on known networks *)

(* The classic CLRS example: max flow 23. *)
let test_clrs () =
  let net = Fn.create ~n:6 in
  let s = 0 and t = 5 in
  let add a b c = ignore (Fn.add_arc net ~src:a ~dst:b ~cap:c) in
  add s 1 16;
  add s 2 13;
  add 1 2 10;
  add 2 1 4;
  add 1 3 12;
  add 3 2 9;
  add 2 4 14;
  add 4 3 7;
  add 3 t 20;
  add 4 t 4;
  Alcotest.(check int) "value" 23 (Mf.max_flow net ~s ~t);
  Alcotest.(check bool) "conservation" true (Mf.conservation_ok net ~s ~t)

let test_disconnected () =
  let net = Fn.create ~n:4 in
  ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:7);
  ignore (Fn.add_arc net ~src:2 ~dst:3 ~cap:7);
  Alcotest.(check int) "no path" 0 (Mf.max_flow net ~s:0 ~t:3)

let test_parallel_arcs () =
  let net = Fn.create ~n:2 in
  ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:3);
  ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:4);
  Alcotest.(check int) "parallel arcs add" 7 (Mf.max_flow net ~s:0 ~t:1)

let test_s_eq_t () =
  let net = Fn.create ~n:2 in
  Alcotest.check_raises "s=t" (Invalid_argument "Max_flow.max_flow: s = t")
    (fun () -> ignore (Mf.max_flow net ~s:0 ~t:0))

(* k vertex-disjoint unit s-t paths: one level graph carries all of
   them, and each is one push out of the source. *)
let test_disjoint_paths_counted () =
  let k = 5 in
  let net = Fn.create ~n:(k + 2) in
  let s = 0 and t = k + 1 in
  for i = 1 to k do
    ignore (Fn.add_arc net ~src:s ~dst:i ~cap:1);
    ignore (Fn.add_arc net ~src:i ~dst:t ~cap:1)
  done;
  let phases = Migration.Instr.counter "flow.bfs_phases"
  and paths = Migration.Instr.counter "flow.augmenting_paths" in
  Migration.Instr.reset ();
  Alcotest.(check int) "value" k (Mf.max_flow net ~s ~t);
  Alcotest.(check int) "one phase" 1 (Migration.Instr.counter_value phases);
  Alcotest.(check int) "k paths" k (Migration.Instr.counter_value paths)

(* Random bipartite unit networks: flow = value certified by min cut,
   and conservation holds. *)
let flow_cut_duality =
  qtest "max-flow: min cut certifies the flow value" ~count:60
    (graph_spec_gen ~max_n:14 ~max_m:60)
    (fun spec ->
      let g = graph_of_spec spec in
      let n = Mgraph.Multigraph.n_nodes g in
      (* build s -> left copy -> right copy -> t over the graph's edges *)
      let net = Fn.create ~n:((2 * n) + 2) in
      let s = 2 * n and t = (2 * n) + 1 in
      for v = 0 to n - 1 do
        ignore (Fn.add_arc net ~src:s ~dst:v ~cap:1);
        ignore (Fn.add_arc net ~src:(n + v) ~dst:t ~cap:1)
      done;
      Mgraph.Multigraph.iter_edges g (fun { Mgraph.Multigraph.u; v; _ } ->
          ignore (Fn.add_arc net ~src:u ~dst:(n + v) ~cap:1));
      let value = Mf.max_flow net ~s ~t in
      if not (Mf.conservation_ok net ~s ~t) then false
      else begin
        (* capacity of the cut found must equal the flow value *)
        let cut = Mf.min_cut net ~s in
        let cut_cap = ref 0 in
        let a = ref 0 in
        while !a < Fn.n_arcs net do
          (* forward arcs only *)
          let u = Fn.src net !a and v = Fn.dst net !a in
          if cut.(u) && not cut.(v) then
            cut_cap := !cut_cap + Fn.residual net !a + Fn.flow net !a;
          a := !a + 2
        done;
        !cut_cap = value
      end)

(* ------------------------------------------------------------------ *)
(* Bmatching *)

let test_bmatching_exact_small () =
  (* 2x2 complete bipartite with unit caps: perfect matching *)
  let p =
    {
      Bm.n_left = 2;
      n_right = 2;
      left_cap = [| 1; 1 |];
      right_cap = [| 1; 1 |];
      edges = [| (0, 0); (0, 1); (1, 0); (1, 1) |];
    }
  in
  (match Bm.solve_exact p with
  | None -> Alcotest.fail "expected a perfect matching"
  | Some sel ->
      let ld, rd = Bm.degrees p sel in
      Alcotest.(check (array int)) "left degrees" [| 1; 1 |] ld;
      Alcotest.(check (array int)) "right degrees" [| 1; 1 |] rd);
  (* infeasible despite equal cap sums: left node 1 needs two edges but
     only one is incident to it *)
  let p_bad =
    {
      Bm.n_left = 2;
      n_right = 2;
      left_cap = [| 1; 2 |];
      right_cap = [| 2; 1 |];
      edges = [| (0, 0); (0, 1); (1, 0) |];
    }
  in
  Alcotest.(check bool) "infeasible" true (Bm.solve_exact p_bad = None)

let test_bmatching_max () =
  let p =
    {
      Bm.n_left = 3;
      n_right = 2;
      left_cap = [| 1; 1; 1 |];
      right_cap = [| 1; 1 |];
      edges = [| (0, 0); (1, 0); (2, 1) |];
    }
  in
  let sel, value = Bm.solve_max p in
  Alcotest.(check int) "max matching" 2 value;
  let ld, rd = Bm.degrees p sel in
  Alcotest.(check bool) "caps respected" true
    (Array.for_all2 ( >= ) p.Bm.left_cap ld
    && Array.for_all2 ( >= ) p.Bm.right_cap rd)

let test_bmatching_errors () =
  let p =
    {
      Bm.n_left = 1;
      n_right = 1;
      left_cap = [| 1; 2 |];
      right_cap = [| 1 |];
      edges = [||];
    }
  in
  Alcotest.check_raises "cap length"
    (Invalid_argument "Bmatching: capacity vector length mismatch") (fun () ->
      ignore (Bm.solve_max p))

(* A bad endpoint is an error even when the capacity sums already rule
   out an exact subgraph. *)
let test_bmatching_exact_bad_endpoint () =
  let p =
    {
      Bm.n_left = 1;
      n_right = 1;
      left_cap = [| 2 |];
      right_cap = [| 1 |];
      edges = [| (0, 1) |];
    }
  in
  Alcotest.check_raises "endpoint"
    (Invalid_argument "Bmatching: edge endpoint out of range") (fun () ->
      ignore (Bm.solve_exact p))

let test_bmatching_negative_cap () =
  let p =
    {
      Bm.n_left = 1;
      n_right = 1;
      left_cap = [| -1 |];
      right_cap = [| 1 |];
      edges = [| (0, 0) |];
    }
  in
  Alcotest.check_raises "solve_max"
    (Invalid_argument "Bmatching: negative capacity") (fun () ->
      ignore (Bm.solve_max p));
  Alcotest.check_raises "solve_exact"
    (Invalid_argument "Bmatching: negative capacity") (fun () ->
      ignore (Bm.solve_exact p))

(* Regular bipartite multigraphs always admit an exact c-matching
   (this is the feasibility fact behind the paper's Lemma 4.1). *)
let bmatching_regular_feasible =
  qtest "bmatching: d-regular bipartite admits exact c-matching for c <= d"
    ~count:50
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 2 8 in
      let* d = int_range 1 6 in
      let* c = int_range 1 d in
      return (seed, n, d, c))
    (fun (seed, n, d, c) ->
      let rng = rng_of_int seed in
      (* random d-regular bipartite multigraph via d perfect matchings *)
      let edges = ref [] in
      for _ = 1 to d do
        let perm = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        Array.iteri (fun l r -> edges := (l, r) :: !edges) perm
      done;
      let p =
        {
          Bm.n_left = n;
          n_right = n;
          left_cap = Array.make n c;
          right_cap = Array.make n c;
          edges = Array.of_list !edges;
        }
      in
      match Bm.solve_exact p with
      | None -> false
      | Some sel ->
          let ld, rd = Bm.degrees p sel in
          Array.for_all (fun x -> x = c) ld && Array.for_all (fun x -> x = c) rd)

let () =
  Alcotest.run "netflow"
    [
      ( "network",
        [
          Alcotest.test_case "basic" `Quick test_network_basic;
          Alcotest.test_case "errors" `Quick test_network_errors;
        ] );
      ( "max_flow",
        [
          Alcotest.test_case "clrs example" `Quick test_clrs;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
          Alcotest.test_case "s = t rejected" `Quick test_s_eq_t;
          Alcotest.test_case "disjoint paths: 1 phase, k paths" `Quick
            test_disjoint_paths_counted;
          flow_cut_duality;
        ] );
      ( "bmatching",
        [
          Alcotest.test_case "exact small" `Quick test_bmatching_exact_small;
          Alcotest.test_case "max" `Quick test_bmatching_max;
          Alcotest.test_case "errors" `Quick test_bmatching_errors;
          Alcotest.test_case "exact: bad endpoint raises" `Quick
            test_bmatching_exact_bad_endpoint;
          Alcotest.test_case "negative capacity raises" `Quick
            test_bmatching_negative_cap;
          bmatching_regular_feasible;
        ] );
    ]

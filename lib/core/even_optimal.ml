module Multigraph = Mgraph.Multigraph

let t_orient = Probes.timer "even_opt.pad_orient"
let t_decompose = Probes.timer "even_opt.decompose"

(* Steps 1-3: pad to degree exactly c_v * delta and Euler-orient.
   Returns the orientation of the padded graph as parallel src/dst
   arrays (edges 0..m-1 are the real transfers). *)
let padded_orientation inst delta =
  let g = Instance.graph inst in
  let n = Multigraph.n_nodes g in
  let g' = Multigraph.create ~n () in
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      ignore (Multigraph.add_edge g' u v));
  let target v = Instance.cap inst v * delta in
  for v = 0 to n - 1 do
    while Multigraph.degree g' v <= target v - 2 do
      ignore (Multigraph.add_edge g' v v)
    done
  done;
  (* nodes still one short have odd original degree; they are even in
     number (handshake) — pair them with dummy edges *)
  let deficient = ref [] in
  for v = n - 1 downto 0 do
    if Multigraph.degree g' v = target v - 1 then deficient := v :: !deficient
  done;
  let rec pair = function
    | [] -> ()
    | [ _ ] -> assert false (* impossible by parity *)
    | a :: b :: rest ->
        ignore (Multigraph.add_edge g' a b);
        pair rest
  in
  pair !deficient;
  for v = 0 to n - 1 do
    assert (Multigraph.degree g' v = target v)
  done;
  Mgraph.Euler.orient g'

(* Step 4, the paper's version: delta successive exact c_v/2-degree
   subgraphs of H extracted by max-flow (Figure 3).  Each round keeps
   the non-selected edges in reverse order (pinned by the golden
   schedules: the next round's matching depends on it), so the rounds
   see the surviving edges in ascending index order, then descending,
   and so on.  One network serves every round; each solve lays its
   rows out in the round's edge order, which is what a network built
   afresh for the round would hold. *)
let decompose_by_flows inst delta srcs dsts m =
  let n = Instance.n_disks inst in
  let half = Array.init n (fun v -> Instance.cap inst v / 2) in
  let target = Array.fold_left ( + ) 0 half in
  let net =
    Netflow.Bmatching.network ~n_left:n ~n_right:n ~left_cap:half
      ~right_cap:half ~src:srcs ~dst:dsts
  in
  let m' = Array.length srcs in
  (* this round's edges, and the next round's, swapped after each *)
  let cur = ref (Array.init m' Fun.id) and next = ref (Array.make m' 0) in
  let len = ref m' in
  let rounds = Array.make delta [] in
  for r = 0 to delta - 1 do
    let edges = !cur and kept = !next in
    if Netflow.Bmatching.solve net edges ~len:!len <> target then
      (* contradicts Lemma 4.1/4.2 — an implementation bug *)
      failwith
        (Printf.sprintf
           "Even_optimal: round %d has no exact c_v/2-matching" r);
    for i = 0 to !len - 1 do
      let e = edges.(i) in
      if e < m && Netflow.Bmatching.selected net e then
        rounds.(r) <- e :: rounds.(r)
    done;
    let j = ref 0 in
    for i = !len - 1 downto 0 do
      if not (Netflow.Bmatching.selected net edges.(i)) then begin
        kept.(!j) <- edges.(i);
        incr j
      end
    done;
    len := !j;
    cur := kept;
    next := edges
  done;
  assert (!len = 0);
  rounds

let schedule ?jobs:(_ : int option) inst =
  if not (Instance.all_caps_even inst) then
    invalid_arg "Even_optimal.schedule: all transfer constraints must be even";
  let g = Instance.graph inst in
  let m = Multigraph.n_edges g in
  if m = 0 then Schedule.of_rounds [||]
  else begin
    let delta = Lower_bounds.lb1 inst in
    let srcs, dsts =
      Probes.time t_orient (fun () -> padded_orientation inst delta)
    in
    let rounds =
      Probes.time t_decompose (fun () ->
          decompose_by_flows inst delta srcs dsts m)
    in
    (* drop padding-only rounds *)
    let nonempty = Array.to_list rounds |> List.filter (fun r -> r <> []) in
    Schedule.of_rounds (Array.of_list nonempty)
  end

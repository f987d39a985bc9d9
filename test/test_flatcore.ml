(* The flat-core contract suite: CSR/arena kernels vs their pre-CSR
   references.

   - qcheck differential props: the [Multigraph.Slow] oracles
     (original list/Hashtbl code) must agree with the CSR paths on
     instances drawn from every generator family;
   - the incident-order pin: [incident] IS the CSR row, in canonical
     insertion order — kernels index the frozen arrays relying on it;
   - golden replay: every row of data/golden/schedules.tsv (generated
     by the pre-CSR planners) must reproduce byte-identically, RNG
     draw for RNG draw;
   - arena discipline: poisoned handles raise [Stale], steady-state
     checkout of a pooled size class reuses the same physical array. *)

module M = Migration
module Multigraph = Mgraph.Multigraph
module Arena = Mgraph.Arena
open Test_util

(* ------------------------------------------------------------------ *)
(* Slow ≡ CSR differential props, across all generator families *)

(* a (family, seed, size) triple is a complete reproducer, so the
   qcheck shrinker output alone names the failing instance *)
let fam_gen =
  let open QCheck2.Gen in
  let n_fam = List.length Gen.all in
  map
    (fun (fi, seed, size) -> (List.nth Gen.all fi, seed, size))
    (triple (int_range 0 (n_fam - 1)) (int_range 1 999) (int_range 4 12))

let graph_of (fam, seed, size) =
  M.Instance.graph (Gen.instance fam ~seed ~size)

let graph_repr g =
  (Format.asprintf "%a" Multigraph.pp g, Multigraph.edges g)

let prop_incident (spec : Gen.family * int * int) =
  let g = graph_of spec in
  let ok = ref true in
  for v = 0 to Multigraph.n_nodes g - 1 do
    if Multigraph.incident g v <> Multigraph.Slow.incident g v then ok := false
  done;
  !ok

let prop_multiplicity spec =
  let g = graph_of spec in
  let n = Multigraph.n_nodes g in
  let ok = ref true in
  let check u v =
    if Multigraph.multiplicity g u v <> Multigraph.Slow.multiplicity g u v
    then ok := false
  in
  (* every realized pair, plus pairs that are (usually) absent *)
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      check u v;
      check v u);
  if n > 1 then begin
    check 0 (n - 1);
    check (n - 1) 0
  end;
  !ok
  && Multigraph.max_multiplicity g = Multigraph.Slow.max_multiplicity g
  && Multigraph.is_simple g = Multigraph.Slow.is_simple g

let prop_sub spec =
  let g = graph_of spec in
  let agree keep =
    let fast, fmap = Multigraph.sub g keep in
    let slow, smap = Multigraph.Slow.sub g keep in
    graph_repr fast = graph_repr slow && fmap = smap
  in
  agree (fun v -> v land 1 = 0)
  && agree (fun v -> v mod 3 <> 0)
  && agree (fun _ -> true)
  && agree (fun _ -> false)

(* incident = the CSR row's edge ids, in canonical insertion order *)
let prop_incident_order spec =
  let g = graph_of spec in
  let csr = Multigraph.freeze g in
  let ok = ref true in
  for v = 0 to Multigraph.n_nodes g - 1 do
    let row = ref [] in
    for s = Multigraph.Csr.row_stop csr v - 1
        downto Multigraph.Csr.row_start csr v do
      row := csr.Multigraph.Csr.edge_ids.(s) :: !row
    done;
    if Multigraph.incident g v <> !row then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* golden replay *)

let golden_path =
  let candidates =
    [
      "data/golden/schedules.tsv";
      "../data/golden/schedules.tsv";
      "../../data/golden/schedules.tsv";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "golden corpus data/golden/schedules.tsv not found"

let test_golden_replay () =
  let text =
    let ic = open_in_bin golden_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rows = M.Golden.parse_rows text in
  Alcotest.(check bool) "corpus non-empty" true (rows <> []);
  List.iter
    (fun (r : M.Golden.row) ->
      let where =
        Printf.sprintf "%s seed=%d size=%d %s" r.family r.seed r.size r.solver
      in
      match Gen.family_of_string r.family with
      | None -> Alcotest.fail (where ^ ": unknown family")
      | Some fam -> (
          let inst = Gen.instance fam ~seed:r.seed ~size:r.size in
          match M.Golden.fingerprint inst ~solver:r.solver ~seed:r.seed with
          | None -> Alcotest.fail (where ^ ": solver now rejects the instance")
          | Some fp ->
              Alcotest.(check int) (where ^ " rounds") r.rounds fp.rounds;
              Alcotest.(check string) (where ^ " digest") r.digest fp.digest))
    rows

(* ------------------------------------------------------------------ *)
(* even-opt: one reused network vs a fresh network per round *)

let test_jobs =
  match Sys.getenv_opt "TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 2)
  | None -> 2

module Fn = Netflow.Flow_network

(* Textbook Dinic over a Flow_network, as max-flow ran before the
   network was reused across rounds: BFS from [s] over every row, [t]
   included, then repeated blocking-flow DFS calls from [s]. *)
let reference_max_flow net ~s ~t =
  let n = Fn.n_nodes net in
  let { Fn.offsets; arc_ids } = Fn.freeze net in
  let dsts, caps = Fn.raw net in
  let level = Array.make n (-1) and cursor = Array.make n 0 in
  let q = Array.make n 0 in
  let rec dfs u limit =
    if u = t then limit
    else begin
      let pushed = ref 0 and continue = ref true in
      while !continue && cursor.(u) < offsets.(u + 1) do
        let a = arc_ids.(cursor.(u)) in
        let v = dsts.(a) in
        if caps.(a) > 0 && level.(v) = level.(u) + 1 then begin
          let got = dfs v (min (limit - !pushed) caps.(a)) in
          if got > 0 then begin
            caps.(a) <- caps.(a) - got;
            caps.(a lxor 1) <- caps.(a lxor 1) + got;
            pushed := !pushed + got;
            if !pushed = limit then continue := false
          end
          else cursor.(u) <- cursor.(u) + 1
        end
        else cursor.(u) <- cursor.(u) + 1
      done;
      !pushed
    end
  in
  let total = ref 0 and continue = ref true in
  while !continue do
    Array.fill level 0 n (-1);
    level.(s) <- 0;
    q.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = q.(!head) in
      incr head;
      for p = offsets.(u) to offsets.(u + 1) - 1 do
        let a = arc_ids.(p) in
        let v = dsts.(a) in
        if level.(v) < 0 && caps.(a) > 0 then begin
          level.(v) <- level.(u) + 1;
          q.(!tail) <- v;
          incr tail
        end
      done
    done;
    if level.(t) < 0 then continue := false
    else begin
      Array.blit offsets 0 cursor 0 n;
      let rec drain () =
        let got = dfs s max_int in
        if got > 0 then begin
          total := !total + got;
          drain ()
        end
      in
      drain ()
    end
  done;
  !total

(* Step 4 as it ran before the reuse: a fresh Figure-3 network per
   round over that round's edges, the non-selected edges kept in
   reverse order for the next round. *)
let reference_even_opt inst =
  let m = M.Instance.n_items inst in
  if m = 0 then M.Schedule.of_rounds [||]
  else begin
    let n = M.Instance.n_disks inst in
    let delta = M.Lower_bounds.lb1 inst in
    let srcs, dsts = M.Even_optimal.padded_orientation inst delta in
    let half = Array.init n (fun v -> M.Instance.cap inst v / 2) in
    let target = Array.fold_left ( + ) 0 half in
    let remaining = ref (Array.init (Array.length srcs) Fun.id) in
    let rounds = Array.make delta [] in
    for r = 0 to delta - 1 do
      let edges = !remaining in
      let net = Fn.create ~n:(2 + (2 * n)) in
      Array.iteri
        (fun l c -> ignore (Fn.add_arc net ~src:0 ~dst:(2 + l) ~cap:c))
        half;
      Array.iteri
        (fun v c -> ignore (Fn.add_arc net ~src:(2 + n + v) ~dst:1 ~cap:c))
        half;
      let first = Fn.n_arcs net in
      Array.iter
        (fun e ->
          ignore (Fn.add_arc net ~src:(2 + srcs.(e)) ~dst:(2 + n + dsts.(e)) ~cap:1))
        edges;
      if reference_max_flow net ~s:0 ~t:1 <> target then
        Alcotest.failf "reference: round %d not exact" r;
      let sel i = Fn.flow net (first + (2 * i)) = 1 in
      Array.iteri
        (fun i e -> if sel i && e < m then rounds.(r) <- e :: rounds.(r))
        edges;
      let kept = ref [] in
      Array.iteri (fun i e -> if not (sel i) then kept := e :: !kept) edges;
      remaining := Array.of_list !kept
    done;
    rounds |> Array.to_list
    |> List.filter (fun r -> r <> [])
    |> Array.of_list |> M.Schedule.of_rounds
  end

(* (kind, seed, size, parity): an all-even G(n,m), power-law or
   fuzz-size "huge" instance whose delta = LB1 has the given parity —
   the rounds alternate their edge order, so both parities end on a
   different direction *)
let even_opt_gen =
  QCheck2.Gen.(
    quad (int_bound 2) (int_range 1 999_999) (int_range 4 12) (int_bound 1))

let even_opt_instance (kind, seed, size, parity) =
  let build seed =
    match kind with
    | 0 ->
        let rng = rng_of_int seed in
        let n = 4 * size in
        M.Instance.random_caps rng
          (Mgraph.Graph_gen.gnm rng ~n ~m:(n * (2 + (seed mod 9))))
          ~choices:[ 2; 4 ]
    | 1 ->
        let rng = rng_of_int seed in
        let n = 3 * size in
        M.Instance.random_caps rng
          (Mgraph.Graph_gen.power_law rng ~n ~m:(n * 6))
          ~choices:[ 2; 4; 6 ]
    | _ -> (
        match Gen.family_of_string "huge" with
        | Some fam -> Gen.instance fam ~seed ~size
        | None -> Alcotest.fail "gen family \"huge\" missing")
  in
  (* the next seeds until delta has the wanted parity *)
  let rec find seed tries =
    let inst = build seed in
    if M.Lower_bounds.lb1 inst land 1 = parity || tries = 0 then inst
    else find (seed + 1) (tries - 1)
  in
  find seed 64

let prop_even_opt_reuse spec =
  let inst = even_opt_instance spec in
  let expect = M.Schedule.to_string (reference_even_opt inst) in
  let at jobs = M.Schedule.to_string (M.Even_optimal.schedule ~jobs inst) in
  at 1 = expect && at test_jobs = expect

(* ------------------------------------------------------------------ *)
(* arena discipline *)

let test_arena_poisoning () =
  let a = Arena.create () in
  let h = Arena.ints a ~len:8 ~fill:7 in
  let arr = Arena.arr h in
  for i = 0 to 7 do
    Alcotest.(check int) "filled" 7 arr.(i)
  done;
  Alcotest.(check int) "outstanding" 1 (Arena.outstanding a);
  Arena.release a h;
  Alcotest.(check int) "outstanding after release" 0 (Arena.outstanding a);
  Alcotest.check_raises "arr after release" Arena.Stale (fun () ->
      ignore (Arena.arr h));
  Alcotest.check_raises "double release" Arena.Stale (fun () ->
      Arena.release a h)

let test_arena_reuse () =
  let a = Arena.create () in
  let h1 = Arena.ints a ~len:8 ~fill:0 in
  let a1 = Arena.arr h1 in
  Arena.release a h1;
  (* same size class -> the pooled array comes back: steady state
     allocates nothing, which is what the bench gate's bytes-per-edge
     budget rests on *)
  let h2 = Arena.ints a ~len:6 ~fill:1 in
  let a2 = Arena.arr h2 in
  Alcotest.(check bool) "pooled array reused" true (a1 == a2);
  for i = 0 to 5 do
    Alcotest.(check int) "refilled" 1 a2.(i)
  done;
  Arena.release a h2

let test_arena_local_per_domain () =
  let here = Arena.local () in
  Alcotest.(check bool) "stable within a domain" true (here == Arena.local ());
  let there = Domain.join (Domain.spawn (fun () -> Arena.local ())) in
  Alcotest.(check bool) "distinct across domains" false (here == there)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "flatcore"
    [
      ( "slow-vs-csr",
        [
          qtest ~count:60 "incident" fam_gen prop_incident;
          qtest ~count:60 "multiplicity family" fam_gen prop_multiplicity;
          qtest ~count:40 "sub" fam_gen prop_sub;
          qtest ~count:60 "incident order = CSR row" fam_gen
            prop_incident_order;
        ] );
      ("golden", [ Alcotest.test_case "replay corpus" `Quick test_golden_replay ]);
      ( "even-opt",
        [
          qtest ~count:60
            (Printf.sprintf
               "reused network = fresh network per round (jobs 1, %d)"
               test_jobs)
            even_opt_gen prop_even_opt_reuse;
        ] );
      ( "arena",
        [
          Alcotest.test_case "poisoning" `Quick test_arena_poisoning;
          Alcotest.test_case "pooled reuse" `Quick test_arena_reuse;
          Alcotest.test_case "per-domain local" `Quick
            test_arena_local_per_domain;
        ] );
    ]

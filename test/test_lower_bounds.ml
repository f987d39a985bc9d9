(* Differential tests for the Γ search of Lower_bounds.

   [Reference.local_search] is the original search, which rebuilt a
   gain Hashtbl from every member's edges at each step.  The library's
   incremental search must reproduce it exactly — value, witness list
   order, and the draws it leaves on the RNG — because the golden
   hetero schedules pin all three through [lower_bound ~rng]. *)

module Multigraph = Mgraph.Multigraph
module M = Migration
open Test_util

module Reference = struct
  let gamma_of ~edges_inside ~cap_sum =
    if edges_inside = 0 then 0
    else begin
      let slots = cap_sum / 2 in
      if slots = 0 then max_int else (edges_inside + slots - 1) / slots
    end

  let local_search inst rng iters =
    let g = M.Instance.graph inst in
    let n = Multigraph.n_nodes g and m = Multigraph.n_edges g in
    if m = 0 then (0, [])
    else begin
      let best = ref 0 and best_set = ref [] in
      let consider members inside capsum =
        let t = gamma_of ~edges_inside:inside ~cap_sum:capsum in
        if t > !best && t < max_int then begin
          best := t;
          best_set := Hashtbl.fold (fun v () acc -> v :: acc) members []
        end
      in
      for _ = 1 to iters do
        let e = Random.State.int rng m in
        let u, v = Multigraph.endpoints g e in
        let members = Hashtbl.create 16 in
        Hashtbl.add members u ();
        if not (Hashtbl.mem members v) then Hashtbl.add members v ();
        let inside = ref (Multigraph.multiplicity g u v) in
        let capsum =
          ref
            (M.Instance.cap inst u
            + if u <> v then M.Instance.cap inst v else 0)
        in
        consider members !inside !capsum;
        let steps = min n 40 in
        for _ = 1 to steps do
          let gain = Hashtbl.create 16 in
          Hashtbl.iter
            (fun w () ->
              Multigraph.iter_incident g w (fun e ->
                  let x = Multigraph.other_endpoint g e w in
                  if not (Hashtbl.mem members x) then
                    Hashtbl.replace gain x
                      ((try Hashtbl.find gain x with Not_found -> 0) + 1)))
            members;
          let pick =
            Hashtbl.fold
              (fun x gx acc ->
                match acc with
                | None -> Some (x, gx)
                | Some (_, gbest) -> if gx > gbest then Some (x, gx) else acc)
              gain None
          in
          match pick with
          | None -> ()
          | Some (x, gx) ->
              Hashtbl.add members x ();
              inside := !inside + gx;
              capsum := !capsum + M.Instance.cap inst x;
              consider members !inside !capsum
        done
      done;
      (!best, !best_set)
    end
end

let show (v, w) =
  Printf.sprintf "%d [%s]" v (String.concat ";" (List.map string_of_int w))

(* Run both searches from the same RNG state; [None] when they agree on
   the value, the witness list and the next draw. *)
let disagreement ?(iters = 32) ~seed inst =
  let rng = rng_of_int seed in
  let ref_rng = Random.State.copy rng in
  let got = M.Lower_bounds.local_search inst rng iters in
  let want = Reference.local_search inst ref_rng iters in
  let got_next = Random.State.bits rng
  and want_next = Random.State.bits ref_rng in
  if got = want && got_next = want_next then None
  else
    Some
      (Printf.sprintf "seed %d: got %s, want %s; next draw %d vs %d" seed
         (show got) (show want) got_next want_next)

let check_all name cases =
  let failures =
    List.filter_map (fun (seed, inst) -> disagreement ~seed inst) cases
  in
  Alcotest.(check (list string)) name [] failures;
  List.length cases

(* Disjoint union of instances, nodes renumbered in order. *)
let union insts =
  let g = Multigraph.create () in
  let caps = ref [] in
  List.iter
    (fun inst ->
      let h = M.Instance.graph inst in
      let base = Multigraph.n_nodes g in
      for v = 0 to Multigraph.n_nodes h - 1 do
        ignore (Multigraph.add_node g);
        caps := M.Instance.cap inst v :: !caps
      done;
      Multigraph.iter_edges h (fun { Multigraph.u; v; _ } ->
          ignore (Multigraph.add_edge g (base + u) (base + v))))
    insts;
  M.Instance.create g ~caps:(Array.of_list (List.rev !caps))

(* "huge" has at least 16 nodes of degree ~16 even at the smallest
   sizes, which the reference search pays for quadratically; it gets
   fewer, smaller instances. *)
let family_cases () =
  List.concat_map
    (fun fam ->
      let huge = fam.Gen.name = "huge" in
      let sizes = if huge then [| 4; 5; 6 |] else [| 4; 6; 8; 12; 16; 20 |] in
      List.init (if huge then 40 else 260) (fun i ->
          let seed = (1000 * i) + String.length fam.Gen.name in
          let size = sizes.(i mod Array.length sizes) in
          (seed, Gen.instance fam ~seed ~size)))
    Gen.all

let test_families () =
  let n = check_all "every family" (family_cases ()) in
  Alcotest.(check bool) "at least 2,000 instances" true (n >= 2_000)

let test_unions () =
  let fams = Array.of_list Gen.all in
  let cases =
    List.init 120 (fun i ->
        let rng = rng_of_int (7_000 + i) in
        let part j =
          let fam = fams.(Random.State.int rng (Array.length fams)) in
          let size = 4 + Random.State.int rng 12 in
          Gen.instance fam ~seed:((31 * i) + j) ~size
        in
        (i, union (List.init (2 + Random.State.int rng 3) part)))
  in
  ignore (check_all "multi-pool unions" cases)

(* Frontiers of more than 32 keys make the rebuilt gain table resize,
   which moves keys between buckets. *)
let test_wide_frontier () =
  let cases =
    List.init 40 (fun i ->
        let rng = rng_of_int (9_000 + i) in
        let n = 50 + Random.State.int rng 120 in
        let g =
          if i mod 2 = 0 then Mgraph.Graph_gen.power_law rng ~n ~m:(4 * n)
          else
            Mgraph.Graph_gen.gnm rng ~n ~m:(n * (4 + Random.State.int rng 5))
        in
        (i, M.Instance.random_caps rng g ~choices:[ 1; 2; 3; 5 ]))
  in
  ignore (check_all "wide frontiers" cases)

(* Stars and cliques give every frontier node the same gain, so the
   pick falls to bucket order and, within a bucket, scan order. *)
let test_stars_and_cliques () =
  let cases =
    List.concat_map
      (fun k ->
        let rng = rng_of_int k in
        let star = Mgraph.Graph_gen.star ~leaves:k in
        let clique = Mgraph.Graph_gen.complete (min k 48) in
        [
          (k, M.Instance.random_caps rng star ~choices:[ 1; 2; 3 ]);
          (k + 1, M.Instance.random_caps rng clique ~choices:[ 1; 2; 3 ]);
          (k + 2, M.Instance.uniform clique ~cap:1);
        ])
      [ 3; 5; 8; 15; 16; 17; 31; 32; 33; 34; 40; 64; 65; 100; 129; 200 ]
  in
  ignore (check_all "stars and cliques" cases)

(* Small multigraphs: fewer than 40 nodes caps the step count at n, and
   parallel edges give gains above 1. *)
let test_small_multigraphs () =
  let cases =
    List.init 400 (fun i ->
        let rng = rng_of_int (11_000 + i) in
        let n = 2 + Random.State.int rng 37 in
        let m = 1 + Random.State.int rng (6 * n) in
        let g = Mgraph.Graph_gen.gnm rng ~n ~m in
        if i mod 3 <> 0 then
          (* stack extra copies of a few edges *)
          for _ = 1 to 1 + Random.State.int rng 8 do
            let u, v = Multigraph.endpoints g (Random.State.int rng m) in
            for _ = 1 to 1 + Random.State.int rng 4 do
              ignore (Multigraph.add_edge g u v)
            done
          done;
        (i, M.Instance.random_caps rng g ~choices:[ 1; 2; 3; 4; 5 ]))
  in
  ignore (check_all "small multigraphs" cases)

let test_edgeless () =
  let inst = M.Instance.uniform (Multigraph.create ~n:5 ()) ~cap:1 in
  Alcotest.(check (option string))
    "edgeless draws nothing" None
    (disagreement ~seed:3 inst)

(* The bottleneck family is built so that Γ beats LB1, and its witness
   is what the forwarding planner targets.  Pinned: the bound and
   witness without and with the RNG, and the RNG's next draw.  The
   unions have more than [exact_limit] nodes, so the search runs next
   to the per-component DP; with [~exact_limit:4] the larger components
   take the whole-component term instead. *)
let bottleneck_pins =
  [
    ("seed 1 size 8", ("6 [0;1;2]", "6 [0;1;2]", 651194123));
    ("seed 2 size 12", ("10 [0;1;2;3;4]", "10 [0;1;2;3;4]", 553354042));
    ("seed 3 size 16", ("15 [0;1;2]", "15 [0;1;2]", 803882632));
    ("seed 4 size 24", ("20 [0;1;2;3;4]", "20 [0;1;2;3;4]", 428610100));
    ("seed 5 size 32", ("30 [0;1;2]", "30 [0;1;2]", 575051563));
    ("union seed 6", ("18 [16;17;18]", "18 [16;17;18]", 836616700));
    ( "union seed 7",
      ("20 [13;14;15;16;17]", "20 [13;14;15;16;17]", 751261955) );
    ("limit 4 seed 8", ("15 [4;5;6]", "20 [10;11;9;12;8]", 915550268));
    ("limit 4 seed 9", ("12 [0;1;2]", "20 [10;11;12;13;14]", 875106768));
  ]

let test_bottleneck_witness () =
  let fam = Option.get (Gen.family_of_string "bottleneck") in
  let row ?exact_limit name seed inst =
    let plain = M.Lower_bounds.lb2_witness ?exact_limit inst in
    let rng = rng_of_int seed in
    let searched = M.Lower_bounds.lb2_witness ?exact_limit ~rng inst in
    (name, (show plain, show searched, Random.State.bits rng))
  in
  let stacked ~seed ~parts ~size =
    union
      (List.init parts (fun j ->
           Gen.instance fam ~seed:(seed + j) ~size:(size + (4 * j))))
  in
  let rows =
    List.map
      (fun (seed, size) ->
        row
          (Printf.sprintf "seed %d size %d" seed size)
          seed
          (Gen.instance fam ~seed ~size))
      [ (1, 8); (2, 12); (3, 16); (4, 24); (5, 32) ]
    @ List.map
        (fun seed ->
          row
            (Printf.sprintf "union seed %d" seed)
            seed
            (stacked ~seed ~parts:4 ~size:8))
        [ 6; 7 ]
    @ List.map
        (fun seed ->
          row ~exact_limit:4
            (Printf.sprintf "limit 4 seed %d" seed)
            seed
            (stacked ~seed ~parts:3 ~size:12))
        [ 8; 9 ]
  in
  Alcotest.(check (list (pair string (triple string string int))))
    "bottleneck lb2_witness" bottleneck_pins rows

(* With [~exact_limit:0] every component takes its whole-component
   term, which [gamma_term] computes independently by rescanning the
   edges. *)
let test_component_terms () =
  let rescanned inst =
    let term nodes =
      let t = M.Lower_bounds.gamma_term inst nodes in
      if t = max_int then (0, []) else (t, nodes)
    in
    let better acc c = if fst c > fst acc then c else acc in
    let g = M.Instance.graph inst in
    let comps = Array.to_list (Mgraph.Traversal.component_members g) in
    let whole = term (List.init (Multigraph.n_nodes g) Fun.id) in
    better whole (List.fold_left better (0, []) (List.map term comps))
  in
  List.iter
    (fun (seed, inst) ->
      let other = List.nth Gen.all (seed mod List.length Gen.all) in
      let inst = union [ inst; Gen.instance other ~seed ~size:6 ] in
      Alcotest.(check (pair int (list int)))
        (Printf.sprintf "seed %d" seed)
        (rescanned inst)
        (M.Lower_bounds.lb2_witness ~exact_limit:0 inst))
    (family_cases ())

let () =
  Alcotest.run "lower_bounds"
    [
      ( "gamma_search",
        [
          Alcotest.test_case "matches the reference on every family" `Quick
            test_families;
          Alcotest.test_case "matches on multi-pool unions" `Quick test_unions;
          Alcotest.test_case "matches past a gain-table resize" `Quick
            test_wide_frontier;
          Alcotest.test_case "matches on stars and cliques" `Quick
            test_stars_and_cliques;
          Alcotest.test_case "matches on small multigraphs" `Quick
            test_small_multigraphs;
          Alcotest.test_case "edgeless graph" `Quick test_edgeless;
        ] );
      ( "lb2_witness",
        [
          Alcotest.test_case "bottleneck family" `Quick test_bottleneck_witness;
          Alcotest.test_case "component terms match gamma_term" `Quick
            test_component_terms;
        ] );
    ]

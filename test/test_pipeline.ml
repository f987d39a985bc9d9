(* The planning pipeline layer: Instance.decompose, Schedule.merge,
   the decompose → solve → merge planner (Migration.Pipeline), and the
   schedule-format hardening that rides along with it. *)

module M = Migration
module Multigraph = Mgraph.Multigraph
open Test_util

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* two triangles (0,1,2) and (3,4,5), plus isolated disk 6 *)
let two_triangles () =
  let g = Multigraph.create ~n:7 () in
  List.iter
    (fun (u, v) -> ignore (Multigraph.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ];
  M.Instance.create g ~caps:[| 2; 2; 2; 1; 3; 1; 5 |]

(* ------------------------------------------------------------------ *)
(* Instance.decompose *)

(* [active_components] is [decompose] without the item-free entries:
   same count, same indices, same instances and maps.  Sparse graphs
   leave isolated disks; half the cases carry tenant tags. *)
let active_components_match =
  qtest "active_components = item-holding entries of decompose" ~count:300
    QCheck2.Gen.(pair (instance_spec_gen ~max_n:24 ~max_m:20 ()) bool)
    (fun (spec, tag) ->
      let inst = instance_of_spec spec in
      let inst =
        if not tag then inst
        else
          let m = M.Instance.n_items inst in
          M.Instance.create (M.Instance.graph inst) ~caps:(M.Instance.caps inst)
            ~groups:(Array.init m (fun e -> e mod 3))
            ~weights:[| 1; 2; 5 |]
      in
      let all = M.Instance.decompose inst in
      let k, active = M.Instance.active_components inst in
      let render (i, c) =
        ( i,
          M.Instance.to_string c.M.Instance.instance,
          c.M.Instance.nodes,
          c.M.Instance.edges )
      in
      let want =
        List.mapi (fun i c -> (i, c)) all
        |> List.filter (fun (_, c) -> M.Instance.n_items c.M.Instance.instance > 0)
      in
      k = List.length all && List.map render active = List.map render want)

let test_decompose_identity () =
  let g = Multigraph.create ~n:3 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 2);
  let inst = M.Instance.create g ~caps:[| 1; 2; 1 |] in
  match M.Instance.decompose inst with
  | [ c ] ->
      Alcotest.(check (array int)) "identity nodes" [| 0; 1; 2 |] c.M.Instance.nodes;
      Alcotest.(check (array int)) "identity edges" [| 0; 1 |] c.M.Instance.edges
  | l -> Alcotest.failf "expected 1 component, got %d" (List.length l)

let test_decompose_components () =
  let inst = two_triangles () in
  let comps = M.Instance.decompose inst in
  Alcotest.(check int) "three components" 3 (List.length comps);
  let g = M.Instance.graph inst in
  let seen = Array.make (M.Instance.n_items inst) 0 in
  List.iter
    (fun c ->
      let ci = c.M.Instance.instance in
      Array.iteri
        (fun lv ov ->
          Alcotest.(check int) "cap remap" (M.Instance.cap inst ov)
            (M.Instance.cap ci lv))
        c.M.Instance.nodes;
      Array.iteri
        (fun i ov ->
          if i > 0 then
            Alcotest.(check bool) "node map strictly increasing" true
              (ov > c.M.Instance.nodes.(i - 1)))
        c.M.Instance.nodes;
      let cg = M.Instance.graph ci in
      Array.iteri
        (fun le oe ->
          seen.(oe) <- seen.(oe) + 1;
          let lu, lv = Multigraph.endpoints cg le in
          let ou, ov = Multigraph.endpoints g oe in
          let mu = c.M.Instance.nodes.(lu) and mv = c.M.Instance.nodes.(lv) in
          Alcotest.(check bool) "edge endpoints remap" true
            ((mu, mv) = (ou, ov) || (mu, mv) = (ov, ou)))
        c.M.Instance.edges)
    comps;
  Array.iteri
    (fun e k -> Alcotest.(check int) (Printf.sprintf "edge %d covered once" e) 1 k)
    seen;
  (* the isolated disk forms its own zero-item component *)
  Alcotest.(check bool) "isolated disk component" true
    (List.exists
       (fun c ->
         M.Instance.n_items c.M.Instance.instance = 0
         && c.M.Instance.nodes = [| 6 |])
       comps)

let test_self_loop_rejected () =
  let g = Multigraph.create ~n:2 () in
  ignore (Multigraph.add_edge g 0 0);
  Alcotest.check_raises "self-loop rejected"
    (Invalid_argument "Instance.create: self-loop (item already at target)")
    (fun () -> ignore (M.Instance.create g ~caps:[| 1; 1 |]))

(* ------------------------------------------------------------------ *)
(* Schedule.merge *)

let test_merge_remap () =
  let s1 = M.Schedule.of_rounds [| [ 0; 1 ]; [ 2 ] |] in
  let s2 = M.Schedule.of_rounds [| [ 0 ] |] in
  let merged = M.Schedule.merge [ (s1, [| 10; 11; 12 |]); (s2, [| 20 |]) ] in
  Alcotest.(check int) "rounds = max over parts" 2 (M.Schedule.n_rounds merged);
  let sorted i = List.sort compare (M.Schedule.round merged i) in
  Alcotest.(check (list int)) "round 0" [ 10; 11; 20 ] (sorted 0);
  Alcotest.(check (list int)) "round 1" [ 12 ] (sorted 1)

let test_merge_empty_and_bad_id () =
  Alcotest.(check int) "merge of nothing is empty" 0
    (M.Schedule.n_rounds (M.Schedule.merge []));
  let s = M.Schedule.of_rounds [| [ 3 ] |] in
  Alcotest.check_raises "out-of-range edge id"
    (Invalid_argument "Schedule.merge: edge id outside its map") (fun () ->
      ignore (M.Schedule.merge [ (s, [| 0 |]) ]))

(* ------------------------------------------------------------------ *)
(* Schedule text format hardening *)

let test_schedule_roundtrip () =
  let s = M.Schedule.of_rounds [| [ 0; 2 ]; []; [ 1 ] |] in
  let s' = M.Schedule.of_string (M.Schedule.to_string s) in
  Alcotest.(check string) "roundtrip" (M.Schedule.to_string s)
    (M.Schedule.to_string s');
  (* trailing blank lines stay fine *)
  ignore (M.Schedule.of_string (M.Schedule.to_string s ^ "\n  \n"))

let test_schedule_trailing_garbage () =
  match M.Schedule.of_string "rounds 1\n0 1\n2 3\n" with
  | _ -> Alcotest.fail "accepted trailing garbage"
  | exception Failure msg ->
      Alcotest.(check bool) "names the problem" true
        (contains msg "trailing garbage")

(* ------------------------------------------------------------------ *)
(* utilization semantics *)

let test_utilization_closed_form () =
  (* per-endpoint accounting must equal the 2m closed form on
     (loop-free, which is all of them) instances *)
  let inst = two_triangles () in
  let sched = M.plan ~rng:(rng_of_int 7) M.Greedy inst in
  check_valid_schedule inst sched "greedy";
  let cap_total = Array.fold_left ( + ) 0 (M.Instance.caps inst) in
  let expect =
    float_of_int (2 * M.Instance.n_items inst)
    /. (float_of_int cap_total *. float_of_int (M.Schedule.n_rounds sched))
  in
  Alcotest.(check (float 1e-9)) "2m closed form" expect
    (M.Schedule.utilization inst sched)

(* ------------------------------------------------------------------ *)
(* the pipeline planner *)

let test_pipeline_mixed_selection () =
  let inst = two_triangles () in
  let sched, report =
    M.Pipeline.solve ~rng:(rng_of_int 5) ~choose:M.Pipeline.auto_choose inst
  in
  check_valid_schedule inst sched "pipeline auto";
  Alcotest.(check int) "components" 3 report.M.Pipeline.components;
  let solver_of i =
    List.find (fun s -> s.M.Pipeline.component = i) report.M.Pipeline.selections
    |> fun s -> s.M.Pipeline.solver
  in
  (* triangle 0-1-2 is all-even, triangle 3-4-5 is not *)
  Alcotest.(check string) "even component" "even-opt" (solver_of 0);
  Alcotest.(check string) "odd component" "hetero" (solver_of 1)

(* disjoint union of two instances — guaranteed >= 2 components *)
let disjoint_union ia ib =
  let ga = M.Instance.graph ia and gb = M.Instance.graph ib in
  let na = Multigraph.n_nodes ga in
  let g = Multigraph.create ~n:(na + Multigraph.n_nodes gb) () in
  Multigraph.iter_edges ga (fun { Multigraph.u; v; _ } ->
      ignore (Multigraph.add_edge g u v));
  Multigraph.iter_edges gb (fun { Multigraph.u; v; _ } ->
      ignore (Multigraph.add_edge g (na + u) (na + v)));
  M.Instance.create g
    ~caps:(Array.append (M.Instance.caps ia) (M.Instance.caps ib))

let multi_spec_gen =
  QCheck2.Gen.(
    let* a = instance_spec_gen ~max_n:8 ~max_m:20 () in
    let* b = instance_spec_gen ~max_n:8 ~max_m:20 () in
    return (a, b))

let prop_pipeline_valid_and_no_worse (sa, sb) =
  let inst = disjoint_union (instance_of_spec sa) (instance_of_spec sb) in
  let sched, report =
    M.Pipeline.solve ~rng:(rng_of_int 11) ~choose:M.Pipeline.auto_choose inst
  in
  check_valid_schedule inst sched "pipeline";
  (* merged round count is the max over component round counts *)
  let worst =
    List.fold_left
      (fun acc s -> max acc s.M.Pipeline.rounds)
      0 report.M.Pipeline.selections
  in
  Alcotest.(check int) "merge takes max over components" worst
    (M.Schedule.n_rounds sched);
  (* never worse than handing the whole instance to the monolithic
     auto-chosen solver *)
  let mono =
    M.Solver.solve ~rng:(rng_of_int 11) (M.Pipeline.auto_choose inst) inst
  in
  M.Schedule.n_rounds sched <= M.Schedule.n_rounds mono

let test_pipeline_empty () =
  let g = Multigraph.create ~n:4 () in
  let inst = M.Instance.create g ~caps:[| 1; 1; 1; 1 |] in
  let sched, report =
    M.Pipeline.solve ~choose:M.Pipeline.auto_choose inst
  in
  Alcotest.(check int) "no rounds" 0 (M.Schedule.n_rounds sched);
  Alcotest.(check int) "four empty components" 4 report.M.Pipeline.components;
  Alcotest.(check int) "no selections" 0
    (List.length report.M.Pipeline.selections)

(* ------------------------------------------------------------------ *)
(* solver registry *)

let test_registry () =
  let names = M.Solver.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "auto"; "even-opt"; "hetero"; "saia"; "greedy"; "orbits" ];
  Alcotest.(check bool) "unknown name" true (M.Solver.find "nope" = None)

let () =
  Alcotest.run "pipeline"
    [
      ( "decompose",
        [
          Alcotest.test_case "connected is identity" `Quick
            test_decompose_identity;
          Alcotest.test_case "components and maps" `Quick
            test_decompose_components;
          Alcotest.test_case "self-loops rejected" `Quick
            test_self_loop_rejected;
          active_components_match;
        ] );
      ( "merge",
        [
          Alcotest.test_case "remapping" `Quick test_merge_remap;
          Alcotest.test_case "empty and bad ids" `Quick
            test_merge_empty_and_bad_id;
        ] );
      ( "format",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "trailing garbage" `Quick
            test_schedule_trailing_garbage;
          Alcotest.test_case "utilization closed form" `Quick
            test_utilization_closed_form;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "mixed selection" `Quick
            test_pipeline_mixed_selection;
          Alcotest.test_case "empty instance" `Quick test_pipeline_empty;
          qtest "pipeline: valid and never worse than monolithic" ~count:60
            multi_spec_gen prop_pipeline_valid_and_no_worse;
        ] );
      ("registry", [ Alcotest.test_case "built-ins" `Quick test_registry ]);
    ]

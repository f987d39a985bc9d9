(* The determinism contract of the parallel engine: Exec.map agrees
   with List.map, Pipeline.solve and Gen.Fuzz.run are bit-identical at
   every --jobs value, and parallel schedules certify clean. *)

module M = Migration
module Multigraph = Mgraph.Multigraph
open Test_util

(* CI runs the suite at TEST_JOBS=2 (the runners have two cores);
   locally the default exercises more interleavings. *)
let jobs_hi =
  match Sys.getenv_opt "TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* the executor itself *)

exception Boom of int

let list_gen = QCheck2.Gen.(list_size (int_bound 200) (int_bound 10_000))

let prop_map_matches_list_map xs =
  let f x = (x * 31) + (x mod 7) in
  Exec.with_pool ~jobs:jobs_hi (fun pool ->
      Exec.map ~pool f xs = List.map f xs)

let test_map_edge_cases () =
  Exec.with_pool ~jobs:jobs_hi (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Exec.map ~pool Fun.id []);
      Alcotest.(check (list int)) "singleton" [ 7 ]
        (Exec.map ~pool (fun x -> x + 1) [ 6 ]);
      Alcotest.(check (list int)) "no pool = sequential" [ 2; 3 ]
        (Exec.map (fun x -> x + 1) [ 1; 2 ]))

let test_exception_propagates () =
  Exec.with_pool ~jobs:jobs_hi (fun pool ->
      (* first failing element in submission order wins, whatever the
         domain interleaving *)
      let f x = if x mod 10 = 3 then raise (Boom x) else x in
      (match Exec.map ~pool f (List.init 50 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> Alcotest.(check int) "earliest failure" 3 x);
      (* the pool survives: later submissions are not poisoned *)
      Alcotest.(check (list int)) "pool survives a raising task"
        [ 0; 2; 4; 6 ]
        (Exec.map ~pool (fun x -> 2 * x) [ 0; 1; 2; 3 ]))

let test_shutdown_idempotent () =
  let pool = Exec.create ~jobs:jobs_hi in
  Alcotest.(check (list int)) "live" [ 1; 4; 9 ]
    (Exec.map ~pool (fun x -> x * x) [ 1; 2; 3 ]);
  Exec.shutdown pool;
  Exec.shutdown pool;
  (* a shut-down pool degrades to sequential, it does not wedge *)
  Alcotest.(check (list int)) "after shutdown" [ 2; 4 ]
    (Exec.map ~pool (fun x -> 2 * x) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* probe accounting under worker domains *)

(* Four domains hammering one counter/timer pair, plus per-task
   registration of an already-registered cell (the racy lookup path).
   With the pre-Atomic Probes this loses updates with near certainty;
   the contract is that parallel counts match the sequential run
   exactly. *)
let test_probe_counts_parallel () =
  let c = M.Instr.counter "stress.bumps" in
  let t = M.Instr.timer "stress.spans" in
  let tasks = List.init 400 Fun.id in
  let work i =
    (* re-registration from worker domains must hand back the same cell *)
    let c' = M.Instr.counter "stress.bumps" in
    for _ = 1 to 250 do
      M.Instr.bump c'
    done;
    M.Instr.bump ~by:2 c;
    M.Instr.record t 0.001;
    i
  in
  M.Instr.reset ();
  let expected_list = List.map work tasks in
  let seq_count = M.Instr.counter_value c in
  let seq_spans =
    let snap = M.Instr.snapshot () in
    match List.assoc_opt "stress.spans" snap.M.Instr.timers with
    | Some sp -> sp.M.Instr.count
    | None -> 0
  in
  M.Instr.reset ();
  Alcotest.(check int) "reset zeroes the counter" 0 (M.Instr.counter_value c);
  let par_list =
    Exec.with_pool ~jobs:4 (fun pool -> Exec.map ~pool work tasks)
  in
  let par_count = M.Instr.counter_value c in
  let par_spans =
    let snap = M.Instr.snapshot () in
    match List.assoc_opt "stress.spans" snap.M.Instr.timers with
    | Some sp -> sp.M.Instr.count
    | None -> 0
  in
  Alcotest.(check (list int)) "results identical" expected_list par_list;
  Alcotest.(check int) "bump total: --jobs 4 = sequential" seq_count par_count;
  Alcotest.(check int) "span count: --jobs 4 = sequential" seq_spans par_spans;
  Alcotest.(check int) "no lost bumps" (400 * 252) par_count

(* ------------------------------------------------------------------ *)
(* pipeline: jobs-independence on every generator family *)

let schedule_fingerprint sched =
  (M.Schedule.n_rounds sched, M.Schedule.to_string sched)

let solve_at ~jobs ~seed inst =
  M.Pipeline.solve ~rng:(rng_of_int seed) ~jobs
    ~choose:M.Pipeline.auto_choose inst

let prop_family_jobs_independent fam (seed, size) =
  let inst = Gen.instance fam ~seed ~size in
  let s1, r1 = solve_at ~jobs:1 ~seed inst in
  let sp, rp = solve_at ~jobs:jobs_hi ~seed inst in
  Alcotest.(check (pair int string))
    (fam.Gen.name ^ ": schedule identical across jobs")
    (schedule_fingerprint s1) (schedule_fingerprint sp);
  Alcotest.(check int)
    (fam.Gen.name ^ ": same component count")
    r1.M.Pipeline.components rp.M.Pipeline.components;
  (* the parallel result certifies clean on its own merits *)
  let v = M.Certify.check inst sp in
  Alcotest.(check int)
    (fam.Gen.name ^ ": zero violations")
    0
    (List.length v.M.Certify.violations);
  M.Certify.ok v

(* The planner's own counters are per-instance facts, so solving the
   components on worker domains must sum them to the sequential
   counts.  Multi-pool unions of 24-disk pools run the Γ search
   (pools larger than [exact_limit]) and hetero on every pool. *)
let test_planner_counts_parallel () =
  let planner (name, _) =
    String.starts_with ~prefix:"lower_bounds." name
    || String.starts_with ~prefix:"hetero." name
  in
  let counts jobs =
    M.Instr.reset ();
    List.iter
      (fun seed ->
        ignore
          (solve_at ~jobs ~seed
             (Gen.instance
                (Option.get (Gen.family_of_string "multipool"))
                ~seed ~size:48)))
      [ 1; 2; 3; 4 ];
    List.filter planner (M.Instr.snapshot ()).M.Instr.counters
  in
  let seq = counts 1 in
  Alcotest.(check bool)
    "the search ran" true
    (List.assoc "lower_bounds.search_steps" seq > 0);
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "--jobs %d = sequential" jobs_hi)
    seq (counts jobs_hi)

let family_tests =
  List.map
    (fun fam ->
      qtest
        (Printf.sprintf "%s: jobs:%d = jobs:1 and certifies" fam.Gen.name
           jobs_hi)
        ~count:200
        QCheck2.Gen.(pair (int_bound 100_000) (int_range 4 10))
        (prop_family_jobs_independent fam))
    Gen.all

(* disjoint unions force the multi-component (parallel) path *)
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
    let* seed = int_bound 100_000 in
    return (a, b, seed))

let prop_multi_component_jobs_independent (sa, sb, seed) =
  let inst = disjoint_union (instance_of_spec sa) (instance_of_spec sb) in
  let s1, _ = solve_at ~jobs:1 ~seed inst in
  let sp, _ = solve_at ~jobs:jobs_hi ~seed inst in
  check_valid_schedule inst sp "parallel multi-component";
  schedule_fingerprint s1 = schedule_fingerprint sp

(* ------------------------------------------------------------------ *)
(* fuzz report determinism across jobs *)

let string_of_report (r : Gen.Fuzz.report) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (fr : Gen.Fuzz.family_report) ->
      Buffer.add_string buf
        (Printf.sprintf "family %s instances=%d\n" fr.Gen.Fuzz.family
           fr.Gen.Fuzz.instances);
      List.iter
        (fun (s : Gen.Fuzz.solver_stats) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s runs=%d certified=%d max_gap=%d gaps=[%s]\n"
               s.Gen.Fuzz.solver s.Gen.Fuzz.runs s.Gen.Fuzz.certified
               s.Gen.Fuzz.max_gap
               (String.concat ";"
                  (List.map
                     (fun (g, c) -> Printf.sprintf "%d:%d" g c)
                     s.Gen.Fuzz.gaps))))
        fr.Gen.Fuzz.per_solver)
    r.Gen.Fuzz.family_reports;
  Buffer.add_string buf
    (Printf.sprintf "totals %d %d\n" r.Gen.Fuzz.total_instances
       r.Gen.Fuzz.total_runs);
  List.iter
    (fun (f : Gen.Fuzz.failure) ->
      Buffer.add_string buf
        (Printf.sprintf "failure %s seed=%d size=%d solver=%s\n%s\n%s\n%s\n"
           f.Gen.Fuzz.family f.Gen.Fuzz.seed f.Gen.Fuzz.size f.Gen.Fuzz.solver
           (String.concat "|" f.Gen.Fuzz.messages)
           (M.Instance.to_string f.Gen.Fuzz.instance)
           (M.Instance.to_string f.Gen.Fuzz.shrunk)))
    r.Gen.Fuzz.failures;
  Buffer.contents buf

let test_fuzz_jobs_independent () =
  let run jobs =
    M.Instr.reset ();
    Gen.Fuzz.run ~size:8 ~jobs ~families:Gen.all ~count:2 ~seed:33 ()
  in
  let r1 = string_of_report (run 1) in
  let rp = string_of_report (run jobs_hi) in
  Alcotest.(check string) "byte-identical reports" r1 rp

(* default_jobs reads MIGRATE_JOBS exactly once per process: a worker
   process that mutates the env mid-run (putenv is not thread-safe
   either) must not make two calls observe different job counts.  The
   regression: it used to re-read the env on every call. *)
let test_default_jobs_memoized () =
  let before = Exec.default_jobs () in
  let saved = Option.value (Sys.getenv_opt "MIGRATE_JOBS") ~default:"" in
  Unix.putenv "MIGRATE_JOBS" (string_of_int (before + 7));
  Fun.protect ~finally:(fun () -> Unix.putenv "MIGRATE_JOBS" saved)
  @@ fun () ->
  Alcotest.(check int) "env mutation after first call is invisible" before
    (Exec.default_jobs ());
  Unix.putenv "MIGRATE_JOBS" "garbage";
  Alcotest.(check int) "unparsable mutation is invisible too" before
    (Exec.default_jobs ())

let () =
  Alcotest.run "parallel"
    [
      ( "exec",
        [
          Alcotest.test_case "default_jobs memoized" `Quick
            test_default_jobs_memoized;
          qtest "Exec.map = List.map" ~count:100 list_gen
            prop_map_matches_list_map;
          Alcotest.test_case "edge cases" `Quick test_map_edge_cases;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "probe counts: --jobs 4 = sequential" `Quick
            test_probe_counts_parallel;
        ] );
      ("pipeline-families", family_tests);
      ( "pipeline-components",
        [
          Alcotest.test_case "planner counts: --jobs N = sequential" `Quick
            test_planner_counts_parallel;
          qtest "disjoint union: parallel = sequential" ~count:120
            multi_spec_gen prop_multi_component_jobs_independent;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "report identical across jobs" `Quick
            test_fuzz_jobs_independent;
        ] );
    ]

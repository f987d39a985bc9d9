(* The online migration service: epoch batching, supersession,
   determinism across --jobs, and tamper-evidence of the flight log.

   The tests here pin the service's externally visible contract:

   - a single batch with no faults degenerates to the offline planner —
     the epoch's executed rounds ARE the offline schedule (oracle
     equivalence, the service adds no rounds and drops none);
   - the rendered report is byte-identical at --jobs 1 and --jobs 4
     over randomized trigger streams (the paper's determinism claim,
     extended to the streaming loop);
   - supersession settles the older request's move at absorption with
     latency 0 while the newer request does the physical work;
   - a tampered flight log is rejected by the independent certifier
     with the exact structured violation, not a generic failure. *)

module M = Migration
module C = M.Certify
open Test_util

let ones n = Array.make n 1.0

(* ------------------------------------------------------------------ *)
(* Offline oracle equivalence                                          *)

(* One Retarget batch at round 0, fault-free, epoch_rounds far above
   the plan length: the run must use exactly one executing epoch whose
   per-round completions equal the offline pipeline's schedule for the
   same diff instance under the same planner RNG derivation
   (Random.State.make [| rng_seed; epoch; 0xe19 |]). *)
let test_offline_oracle () =
  let seed = 11 in
  let cluster =
    {
      Service.caps = [| 3; 3; 2; 2 |];
      placement = [| 0; 0; 1; 1; 2; 2; 3; 3; 0; 1 |];
      demands = ones 10;
    }
  in
  let moves =
    [ (0, 2); (1, 3); (2, 0); (3, 2); (4, 1); (6, 0); (8, 3); (9, 2) ]
  in
  let r =
    Service.run ~jobs:1 ~epoch_rounds:64 ~rng_seed:seed cluster
      ~requests:[ { Service.at = 0; tenant = 0; trigger = Service.Retarget moves } ]
      ()
  in
  Alcotest.(check bool) "not truncated" false r.Service.truncated;
  let executing =
    List.filter
      (fun ep -> ep.C.se_log <> [])
      r.Service.execution.C.svc_epochs
  in
  let ep =
    match executing with
    | [ ep ] -> ep
    | eps -> Alcotest.failf "expected 1 executing epoch, got %d" (List.length eps)
  in
  let sched, _report =
    M.Pipeline.solve
      ~rng:(Random.State.make [| seed; 0; 0xe19 |])
      ~jobs:1 ~choose:M.Pipeline.auto_choose ep.C.se_instance
  in
  let items_of edges =
    List.sort compare (List.map (fun e -> ep.C.se_items.(e)) edges)
  in
  let oracle =
    Array.to_list (M.Schedule.rounds sched) |> List.map items_of
  in
  let got = List.map (fun rd -> items_of rd.C.completed) ep.C.se_log in
  Alcotest.(check (list (list int)))
    "epoch rounds = offline schedule" oracle got;
  Alcotest.(check int) "all moves executed" (List.length moves)
    (List.fold_left (fun acc rd -> acc + List.length rd) 0 got)

(* ------------------------------------------------------------------ *)
(* Determinism across --jobs                                           *)

(* A randomized spec realized deterministically, so qcheck shrinking
   stays meaningful.  The streams mix every trigger kind; invalid ones
   (e.g. failing an already-dead disk) exercise admission control. *)
type svc_spec = { sseed : int; ndisks : int; nitems : int; nreqs : int }

let cluster_of_spec { sseed; ndisks; nitems; _ } =
  let rng = rng_of_int sseed in
  {
    Service.caps = Array.init ndisks (fun _ -> 1 + Random.State.int rng 4);
    placement = Array.init nitems (fun _ -> Random.State.int rng ndisks);
    demands =
      Array.init nitems (fun _ -> 0.25 +. Random.State.float rng 2.0);
  }

let requests_of_spec { sseed; ndisks; nitems; nreqs } =
  let rng = rng_of_int (sseed + 7) in
  List.init nreqs (fun i ->
      let at = i * Random.State.int rng 7 in
      let trigger =
        match Random.State.int rng 6 with
        | 0 | 1 ->
            let k = 1 + Random.State.int rng 5 in
            Service.Retarget
              (List.init k (fun _ ->
                   (Random.State.int rng nitems, Random.State.int rng ndisks)))
        | 2 ->
            Service.Demand_shift
              { fraction = 0.1 +. Random.State.float rng 0.4 }
        | 3 -> Service.Add_disk { cap = 1 + Random.State.int rng 3 }
        | 4 -> Service.Remove_disk { disk = Random.State.int rng ndisks }
        | _ -> Service.Fail_disk { disk = Random.State.int rng ndisks }
      in
      { Service.at; tenant = 0; trigger })

let svc_spec_gen =
  QCheck2.Gen.(
    let* sseed = int_bound 1_000_000 in
    let* ndisks = int_range 3 6 in
    let* nitems = int_range 10 30 in
    let* nreqs = int_range 1 6 in
    return { sseed; ndisks; nitems; nreqs })

let render r =
  Format.asprintf "%a@.%a@." Service.pp_report r Service.pp_statuses r

let run_spec ~jobs spec =
  Service.run ~jobs ~epoch_rounds:8 ~rng_seed:spec.sseed
    (cluster_of_spec spec)
    ~requests:(requests_of_spec spec) ()

let prop_jobs_deterministic spec =
  let r1 = run_spec ~jobs:1 spec and r4 = run_spec ~jobs:4 spec in
  if render r1 <> render r4 then
    QCheck2.Test.fail_reportf
      "reports differ between --jobs 1 and --jobs 4 for seed=%d disks=%d \
       items=%d reqs=%d@.--- jobs 1:@.%s@.--- jobs 4:@.%s"
      spec.sseed spec.ndisks spec.nitems spec.nreqs (render r1) (render r4);
  (* and both certify: determinism of a wrong answer is no comfort *)
  C.service_ok (C.certify_service r1.Service.execution)

(* ------------------------------------------------------------------ *)
(* Supersession latency                                                *)

(* A and B arrive at the same boundary, both retargeting item 0.  B is
   newer (later in arrival order), so A's move is superseded at
   absorption: A completes at its own absorption round with latency 0
   and B pays for the physical transfer.  The final placement obeys B. *)
let test_supersession_latency () =
  let cluster =
    { Service.caps = [| 2; 2; 2 |]; placement = [| 0; 0; 1 |]; demands = ones 3 }
  in
  let requests =
    [
      { Service.at = 0; tenant = 0; trigger = Service.Retarget [ (0, 1) ] };
      { Service.at = 0; tenant = 0; trigger = Service.Retarget [ (0, 2) ] };
    ]
  in
  let r = Service.run ~epoch_rounds:8 ~rng_seed:3 cluster ~requests () in
  (match r.Service.statuses.(0) with
  | C.Sreq_completed { absorbed; completed } ->
      Alcotest.(check int) "A absorbed at its arrival boundary" 0 absorbed;
      Alcotest.(check int) "A completed by supersession, latency 0" 0 completed
  | s ->
      Alcotest.failf "request A: expected completion, got %s"
        (C.service_request_status_to_string s));
  (match r.Service.statuses.(1) with
  | C.Sreq_completed { completed; _ } ->
      Alcotest.(check bool) "B paid at least one round" true (completed >= 1)
  | s ->
      Alcotest.failf "request B: expected completion, got %s"
        (C.service_request_status_to_string s));
  Alcotest.(check int) "A's latency is 0" (Some 0 |> Option.get)
    (List.assoc 0 r.Service.latencies);
  Alcotest.(check bool) "B's latency >= 1" true
    (List.assoc 1 r.Service.latencies >= 1);
  Alcotest.(check int) "item 0 ends on B's target"
    2 r.Service.execution.C.svc_final.(0);
  Alcotest.(check bool) "flight log certifies" true
    (C.service_ok (C.certify_service r.Service.execution))

(* Item 0 is owed a move from disk 0 to disk 1 when disk 0 fails at the
   same boundary.  Re-replication patches it onto the ring successor,
   disk 1 — its target — so there is nothing left to move: the request
   settles at absorption and no epoch plans a transfer. *)
let test_patch_lands_on_target () =
  let cluster =
    { Service.caps = [| 1; 1; 1 |]; placement = [| 0; 2 |]; demands = ones 2 }
  in
  let requests =
    [
      { Service.at = 0; tenant = 0; trigger = Service.Retarget [ (0, 1) ] };
      { Service.at = 0; tenant = 0; trigger = Service.Fail_disk { disk = 0 } };
    ]
  in
  let r = Service.run ~epoch_rounds:4 ~rng_seed:1 cluster ~requests () in
  Alcotest.(check bool) "not truncated" false r.Service.truncated;
  Alcotest.(check int) "no transfer" 0 r.Service.transfers;
  Alcotest.(check int) "one repair" 1 r.Service.repairs;
  Alcotest.(check (list (pair int int))) "both settle at once"
    [ (0, 0); (1, 0) ] r.Service.latencies;
  Alcotest.(check bool) "flight log certifies" true
    (C.service_ok (C.certify_service r.Service.execution))

(* ------------------------------------------------------------------ *)
(* Tamper evidence                                                     *)

let clean_run () =
  let cluster =
    {
      Service.caps = [| 2; 2; 2; 2 |];
      placement = [| 0; 0; 1; 1; 2; 3 |];
      demands = ones 6;
    }
  in
  let requests =
    [
      { Service.at = 0; tenant = 0; trigger = Service.Retarget [ (0, 2); (2, 3); (4, 0) ] };
      { Service.at = 2; tenant = 0; trigger = Service.Retarget [ (1, 3); (5, 1) ] };
    ]
  in
  Service.run ~epoch_rounds:4 ~rng_seed:5 cluster ~requests ()

let test_tamper_duplicate_completion () =
  let r = clean_run () in
  let exec = r.Service.execution in
  Alcotest.(check bool) "untampered log certifies" true
    (C.service_ok (C.certify_service exec));
  let epochs =
    match exec.C.svc_epochs with
    | ep :: rest ->
        let log =
          match ep.C.se_log with
          | rd :: tl ->
              { rd with C.completed = List.hd rd.C.completed :: rd.C.completed }
              :: tl
          | [] -> Alcotest.fail "epoch 0 executed no rounds"
        in
        { ep with C.se_log = log } :: rest
    | [] -> Alcotest.fail "run produced no epochs"
  in
  let v = C.certify_service { exec with C.svc_epochs = epochs } in
  Alcotest.(check bool) "tampered log rejected" false (C.service_ok v);
  let is_duplicate = function
    | C.Svc_epoch { epoch = 0; violation = C.Exec_duplicate _ } -> true
    | _ -> false
  in
  if not (List.exists is_duplicate v.C.svc_violations) then
    Alcotest.failf
      "expected Svc_epoch {epoch=0; Exec_duplicate _}, got: %s"
      (String.concat "; "
         (List.map C.service_violation_to_string v.C.svc_violations))

let test_tamper_final_placement () =
  let r = clean_run () in
  let exec = r.Service.execution in
  let ndisks = 4 in
  let forged =
    Array.map (fun d -> (d + 1) mod ndisks) exec.C.svc_final
  in
  let v = C.certify_service { exec with C.svc_final = forged } in
  Alcotest.(check bool) "forged final rejected" false (C.service_ok v);
  let is_final = function C.Svc_final_mismatch _ -> true | _ -> false in
  if not (List.exists is_final v.C.svc_violations) then
    Alcotest.failf "expected Svc_final_mismatch, got: %s"
      (String.concat "; "
         (List.map C.service_violation_to_string v.C.svc_violations))

(* ------------------------------------------------------------------ *)
(* Serve golden                                                        *)

(* Fixed streams shaped like the benchmark's serve-stream: 32 disks with
   caps 1..5, 3,000 items with Zipf(1.1) demands laid out by
   [Layout.balance], and 100 tenant-tagged requests — mostly retargets
   to active disks, two 0.3% demand shifts, and one disk add, drain
   and failure — run with 8-round epochs and 1% transfer faults.  From
   seed 9 on, the engine also crashes a disk mid-epoch every 16
   epochs, so quarantines, abandonment and re-replication show up
   too.  Each row of data/golden/serve.tsv pins one seed's rendered
   report and statuses and its flight log, so any drift in a schedule,
   an RNG draw or a settlement shows here.  Regenerating the file
   (--write-serve-golden, below) redefines the reference behaviour. *)
let golden_stream seed =
  let rng = Random.State.make [| seed; 0x901d |] in
  let n_disks = 32 and n_items = 3000 and n_requests = 100 in
  let caps = Array.init n_disks (fun _ -> 1 + Random.State.int rng 5) in
  let demands = Workloads.Demand.demands rng ~n:n_items ~s:1.1 in
  let placement =
    Storsim.Placement.to_array
      (Workloads.Layout.balance ~demands
         ~weights:(Array.map float_of_int caps))
  in
  let active = ref (List.init n_disks Fun.id) in
  let any_active () =
    List.nth !active (Random.State.int rng (List.length !active))
  in
  let retire () =
    let d = any_active () in
    active := List.filter (( <> ) d) !active;
    d
  in
  let requests =
    List.init n_requests (fun k ->
        let trigger =
          match k with
          | 15 | 65 -> Service.Demand_shift { fraction = 0.003 }
          | 35 ->
              active := n_disks :: !active;
              Service.Add_disk { cap = 2 + Random.State.int rng 3 }
          | 50 -> Service.Remove_disk { disk = retire () }
          | 80 -> Service.Fail_disk { disk = retire () }
          | _ ->
              Service.Retarget
                (List.init
                   (1 + Random.State.int rng 6)
                   (fun _ -> (Random.State.int rng n_items, any_active ())))
        in
        { Service.at = 2 * k; tenant = Random.State.int rng 4; trigger })
  in
  ({ Service.caps; placement; demands }, requests)

let golden_run ~jobs seed =
  let cluster, requests = golden_stream seed in
  let policy ~epoch =
    let crashes =
      if seed >= 9 && epoch mod 16 = 5 then [ (1, ((seed * 5) + epoch) mod 32) ]
      else []
    in
    Storsim.Fault.engine_policy ~fault_rate:0.01 ~crashes
      ~seed:((seed * 7919) + epoch)
      ()
  in
  Service.run ~jobs ~epoch_rounds:8 ~rng_seed:seed ~policy cluster ~requests ()

(* the flight log, item by item: every epoch's base, and per round the
   items attempted, completed, crashed and slowed *)
let render_log r =
  let b = Buffer.create 4096 in
  let items ep l =
    String.concat "," (List.map (fun e -> string_of_int ep.C.se_items.(e)) l)
  in
  List.iter
    (fun ep ->
      Printf.bprintf b "epoch %d idle %d\n" ep.C.se_base ep.C.se_idle;
      List.iter
        (fun (er : C.exec_round) ->
          Printf.bprintf b "%s|%s|%s|%s\n" (items ep er.C.attempted)
            (items ep er.C.completed)
            (String.concat "," (List.map string_of_int er.C.crashed))
            (String.concat ","
               (List.map
                  (fun (d, c) -> Printf.sprintf "%d:%d" d c)
                  er.C.slowed)))
        ep.C.se_log)
    r.Service.execution.C.svc_epochs;
  Buffer.contents b

let golden_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let golden_row ~jobs seed =
  let r = golden_run ~jobs seed in
  Printf.sprintf "%d\t%d\t%d\t%s\t%s" seed r.Service.epochs
    r.Service.transfers
    (Digest.to_hex (Digest.string (render r)))
    (Digest.to_hex (Digest.string (render_log r)))

let golden_header = "# seed\tepochs\ttransfers\treport_md5\tlog_md5\n"

let serve_golden_path =
  List.find_opt Sys.file_exists
    [
      "data/golden/serve.tsv";
      "../data/golden/serve.tsv";
      "../../data/golden/serve.tsv";
    ]

let test_serve_golden ~jobs () =
  let path =
    match serve_golden_path with
    | Some p -> p
    | None -> Alcotest.fail "golden corpus data/golden/serve.tsv not found"
  in
  let rows =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "one row per seed" (List.length golden_seeds)
    (List.length rows);
  List.iter2
    (fun seed row ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d at --jobs %d" seed jobs)
        row (golden_row ~jobs seed))
    golden_seeds rows

(* ------------------------------------------------------------------ *)

let () =
  (* regenerate the corpus: test_service.exe --write-serve-golden *)
  if Array.exists (( = ) "--write-serve-golden") Sys.argv then begin
    print_string golden_header;
    List.iter (fun s -> print_endline (golden_row ~jobs:1 s)) golden_seeds;
    exit 0
  end

let () =
  Alcotest.run "service"
    [
      ( "oracle",
        [
          Alcotest.test_case "single batch = offline plan" `Quick
            test_offline_oracle;
        ] );
      ( "determinism",
        [
          qtest ~count:15 "report byte-identical at --jobs 1 and 4"
            svc_spec_gen prop_jobs_deterministic;
        ] );
      ( "supersession",
        [
          Alcotest.test_case "superseded move settles with latency 0" `Quick
            test_supersession_latency;
          Alcotest.test_case "re-replication lands an item on its target"
            `Quick test_patch_lands_on_target;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "duplicated completion -> Exec_duplicate" `Quick
            test_tamper_duplicate_completion;
          Alcotest.test_case "forged final placement -> Svc_final_mismatch"
            `Quick test_tamper_final_placement;
        ] );
      ( "golden",
        [
          Alcotest.test_case "serve streams replay at --jobs 1" `Quick
            (test_serve_golden ~jobs:1);
          Alcotest.test_case "serve streams replay at --jobs 2" `Quick
            (test_serve_golden ~jobs:2);
        ] );
    ]

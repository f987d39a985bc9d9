(* The repository benchmark: three closed-loop, single-client workloads
   over the planner and the online service; the traced run also probes
   the distributed runner.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--small]

   Inputs are generated from the seed alone and handed to the program
   through its public API; every output is certified before it counts.
   The last line of standard output is the result object.  See
   README.md in this directory for the workloads, the metrics and the
   traced run. *)

module M = Migration
module MG = Mgraph.Multigraph
module G = Mgraph.Graph_gen

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Options                                                             *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref false
let small = ref false
let out_dir = ref "perfbench/out"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ( "--trace",
        Arg.Int (fun t -> traced := t <> 0),
        "0|1 untraced run (end-to-end metrics) or traced run (per layer)" );
      ("--small", Arg.Set small, " tiny inputs, for the self-check");
      ("--out", Arg.Set_string out_dir, "DIR trace files and state dirs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

(* The worker budgets every workload passes explicitly; the program's
   own default ([Exec.default_jobs], [MIGRATE_JOBS]) is never read.
   Timed requests run at [jobs]: on a host that lends the benchmark two
   vCPUs, a second domain measures the host's scheduler (its steal time
   doubled the latency and its spread) more than the program.  The
   traced pass runs at [traced_jobs], so that the [Exec] layer is
   exercised and [exec.speedup_j2] compares the two. *)
let jobs = 1
let traced_jobs = 2

(* ------------------------------------------------------------------ *)
(* One request                                                         *)

(* What one closed-loop request produced.  The lazy fields are only
   forced where they are reported, outside the timed path. *)
type outcome = {
  ok : bool;  (** certified (and, for dist, byte-identical) *)
  items : int;  (** items planned / transfers completed *)
  rounds : int;  (** rounds delivered *)
  quality : (int * int) Lazy.t;
      (** (rounds, deterministic lower bound) for [rounds_over_lb] *)
  completion : (int * int) list Lazy.t;
      (** (completion round, how many) per unit of user-visible work *)
  fingerprint : string Lazy.t;  (** byte-comparable output *)
  layers : unit -> unit;  (** traced run only: extra outside calls *)
}

type job = { run : jobs:int -> outcome }

let failed_outcome =
  {
    ok = false;
    items = 0;
    rounds = 0;
    quality = lazy (0, 0);
    completion = lazy [];
    fingerprint = lazy "";
    layers = ignore;
  }

(* Per-layer accumulators the [layers] calls fill. *)
let lb_s = ref 0.0
let lb_solve_s = ref 0.0

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* [lower_bounds.share]: on every component [auto] routes to hetero,
   time [Lower_bounds.lower_bound ~rng] against a hetero solve of the
   same component (both sequential). *)
let lower_bound_layer ~rng_of inst =
  let comps = Trace.span "instance.decompose" (fun () -> M.Instance.decompose inst) in
  List.iteri
    (fun k (c : M.Instance.component) ->
      let ci = c.M.Instance.instance in
      if M.Instance.n_items ci > 0
         && (M.Pipeline.auto_choose ci).M.Solver.name = M.Solver.hetero.M.Solver.name
      then begin
        let (_ : int), t =
          timed (fun () ->
              Trace.span "lower_bounds.lower_bound" (fun () ->
                  M.Lower_bounds.lower_bound ~rng:(rng_of k) ci))
        in
        lb_s := !lb_s +. t;
        let (_ : M.Schedule.t), t =
          timed (fun () ->
              Trace.span "solver.hetero" (fun () ->
                  M.Solver.solve ~rng:(rng_of k) M.Solver.hetero ci))
        in
        lb_solve_s := !lb_solve_s +. t
      end)
    comps

let schedule_completion sched =
  List.init (M.Schedule.n_rounds sched) (fun r ->
      (r + 1, List.length (M.Schedule.round sched r)))

(* ------------------------------------------------------------------ *)
(* plan-even and plan-mixed                                            *)

let rng_for i salt = Random.State.make [| !seed; i; salt |]
let pick rng l = List.nth l (Random.State.int rng (List.length l))

let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* Disjoint union of graphs, node ids shifted block by block. *)
let union graphs =
  let n = List.fold_left (fun acc g -> acc + MG.n_nodes g) 0 graphs in
  let g = MG.create ~n () in
  ignore
    (List.fold_left
       (fun off gc ->
         MG.iter_edges gc (fun { MG.u; v; _ } ->
             ignore (MG.add_edge g (off + u) (off + v)));
         off + MG.n_nodes gc)
       0 graphs);
  g

(* All-even instances, caps {2,4}.  Even index: a wide G(n,m) graph
   (average degree 24, many small per-round b-matching components);
   odd index: a power-law hot-spot graph whose hubs push the degree
   bound into the hundreds.  Shapes are fixed; the seed draws the
   edges and the caps. *)
let even_instance i =
  let rng = rng_for i 0xe7e in
  let f = if !small then 8 else 1 in
  let g =
    if i mod 2 = 0 then G.gnm rng ~n:(240 / f) ~m:(240 / f * 12)
    else G.power_law rng ~n:(120 / f) ~m:(120 / f * 8)
  in
  M.Instance.random_caps rng g ~choices:[ 2; 4 ]

(* Several disjoint pools with caps {1,2,3,5}: G(n,m) pools plus one
   skewed power-law pool. *)
let mixed_instance i =
  let rng = rng_for i 0x313 in
  let f = if !small then 4 else 1 in
  let pools = range rng 3 5 in
  let graphs =
    List.init pools (fun p ->
        let n = range rng 24 48 / f in
        if p = 0 then G.power_law rng ~n ~m:(n * range rng 5 8)
        else G.gnm rng ~n ~m:(n * range rng 4 8))
  in
  M.Instance.random_caps rng (union graphs) ~choices:[ 1; 2; 3; 5 ]

let plan_job ~certify_as i inst =
  let items = M.Instance.n_items inst in
  let run ~jobs =
    let rng = rng_for i 0x9a7 in
    let sched, _ =
      Trace.span "pipeline.solve" (fun () ->
          M.Pipeline.solve ~rng ~jobs ~choose:M.Pipeline.auto_choose inst)
    in
    let v =
      Trace.span "certify.check" (fun () ->
          M.Certify.check ~solver:certify_as inst sched)
    in
    let rounds = M.Schedule.n_rounds sched in
    {
      ok = M.Certify.ok v;
      items;
      rounds;
      quality = lazy (rounds, v.M.Certify.lb);
      completion = lazy (schedule_completion sched);
      fingerprint = lazy (M.Schedule.to_string sched);
      layers =
        (fun () -> lower_bound_layer ~rng_of:(fun k -> rng_for i (0x1b0 + k)) inst);
    }
  in
  { run }

(* ------------------------------------------------------------------ *)
(* serve-stream                                                        *)

(* One seeded stream: Zipf(1.1) demands over the items on
   heterogeneous disks (caps 1..5) and 100 tenant-tagged requests in
   which retargets dominate; two small demand shifts and one disk
   add, drain and failure sit at fixed positions.  The seed draws the
   caps, the demands, the retargets and the disks that leave.  Larger
   shifts or fewer disks make the latency tail depend on which hot
   items a shift happens to hit, and the round metrics stop being
   comparable across seeds. *)
let serve_stream j =
  let rng = rng_for j 0x5e7 in
  let n_disks = if !small then 8 else 32 in
  let n_items = if !small then 600 else 3000 in
  let n_requests = if !small then 40 else 100 in
  let caps = Array.init n_disks (fun _ -> range rng 1 5) in
  let demands = Workloads.Demand.demands rng ~n:n_items ~s:1.1 in
  let placement =
    Storsim.Placement.to_array
      (Workloads.Layout.balance ~demands ~weights:(Array.map float_of_int caps))
  in
  (* the active disk set, so that no request is invalid *)
  let active = ref (List.init n_disks Fun.id) in
  let retire () =
    let d = pick rng !active in
    active := List.filter (( <> ) d) !active;
    d
  in
  let event k = k * n_requests / 100 in
  let requests =
    List.init n_requests (fun k ->
        let trigger =
          if k = event 12 || k = event 62 then
            Service.Demand_shift { fraction = 0.003 }
          else if k = event 30 then begin
            active := n_disks :: !active;
            Service.Add_disk { cap = 3 }
          end
          else if k = event 55 then Service.Remove_disk { disk = retire () }
          else if k = event 80 then Service.Fail_disk { disk = retire () }
          else
            Service.Retarget
              (List.init (range rng 1 6) (fun _ ->
                   (Random.State.int rng n_items, pick rng !active)))
        in
        { Service.at = 2 * k; tenant = Random.State.int rng 4; trigger })
  in
  ({ Service.caps; placement; demands }, requests)

let epoch_rounds = 8

let serve_job j (cluster, requests) =
  let run ~jobs =
    let policy ~epoch =
      Storsim.Fault.engine_policy ~fault_rate:0.01
        ~seed:((!seed * 7919) + (j * 131) + epoch)
        ()
    in
    let r =
      Trace.span "service.run" (fun () ->
          Service.run ~jobs ~epoch_rounds ~rng_seed:((!seed * 31) + j) ~policy
            cluster ~requests ())
    in
    let v =
      Trace.span "certify.certify_service" (fun () ->
          M.Certify.certify_service r.Service.execution)
    in
    let epochs = r.Service.execution.M.Certify.svc_epochs in
    let rounds =
      List.fold_left
        (fun acc (e : M.Certify.service_epoch) -> acc + List.length e.M.Certify.se_log)
        0 epochs
    in
    let rejected =
      Array.exists
        (function M.Certify.Sreq_rejected _ -> true | _ -> false)
        r.Service.statuses
    in
    {
      ok = M.Certify.service_ok v && (not r.Service.truncated) && not rejected;
      items = r.Service.transfers;
      rounds;
      (* an epoch cannot finish its diff below the diff's lower bound,
         and runs at most [epoch_rounds] rounds *)
      quality =
        lazy
          (List.fold_left
             (fun (rs, lb) (e : M.Certify.service_epoch) ->
               ( rs + List.length e.M.Certify.se_log,
                 lb
                 + min epoch_rounds
                     (M.Lower_bounds.lower_bound e.M.Certify.se_instance) ))
             (0, 0) epochs);
      completion =
        lazy (List.map (fun (_, l) -> (l, 1)) r.Service.latencies);
      fingerprint =
        lazy
          (Format.asprintf "%a@.%a@." Service.pp_report r Service.pp_statuses r);
      layers =
        (fun () ->
          List.iteri
            (fun k (e : M.Certify.service_epoch) ->
              lower_bound_layer
                ~rng_of:(fun c -> rng_for j ((k * 64) + c))
                e.M.Certify.se_instance)
            epochs);
    }
  in
  { run }

(* ------------------------------------------------------------------ *)
(* The distributed runner (a probe of the traced run)                 *)

(* [components] disjoint G(n,m) blocks, caps {2,3}: 2,400 items. *)
let dist_instance i =
  let rng = rng_for i 0xd15 in
  let components = 4 in
  let n, m = if !small then (8, 60) else (40, 600) in
  let graphs = List.init components (fun _ -> G.gnm rng ~n ~m) in
  M.Instance.random_caps rng (union graphs) ~choices:[ 2; 3 ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dist_counter = ref 0

(* The distributed run's flight log must byte-match the in-process
   engine under [Runner.plan_rng]; the reference is computed first, at
   jobs 1 (this process must never spawn a domain before it forks). *)
let dist_job i inst =
  let pseed = (!seed * 1000) + i in
  let reference =
    M.Certify.execution_to_string
      (M.Engine.run ~rng:(Distproto.Runner.plan_rng pseed) ~jobs:1
         ~policy:M.Engine.no_faults inst)
        .M.Engine.execution
  in
  let lb = M.Lower_bounds.lower_bound inst in
  let run ~jobs:_ =
    incr dist_counter;
    let state_dir =
      Filename.concat !out_dir
        (Printf.sprintf "state.%d.%d" (Unix.getpid ()) !dist_counter)
    in
    rm_rf state_dir;
    let r =
      Trace.span "runner.run" (fun () ->
          Distproto.Runner.run ~workers:2 ~seed:pseed ~state_dir inst)
    in
    rm_rf state_dir;
    match r with
    | Ok (Distproto.Runner.Completed o) ->
        let x = o.Distproto.Runner.execution in
        let v =
          Trace.span "certify.certify_execution" (fun () ->
              M.Certify.certify_execution x)
        in
        let log =
          Trace.span "certify.execution_to_string" (fun () ->
              M.Certify.execution_to_string x)
        in
        let rounds = o.Distproto.Runner.rounds in
        {
          ok = M.Certify.exec_ok v && log = reference;
          items = v.M.Certify.completed_items;
          rounds;
          quality = lazy (rounds, lb);
          completion =
            lazy
              (List.mapi
                 (fun r (er : M.Certify.exec_round) ->
                   (r + 1, List.length er.M.Certify.completed))
                 x.M.Certify.log);
          fingerprint = lazy log;
          layers = ignore;
        }
    | Ok (Distproto.Runner.Interrupted _) | Error _ -> failed_outcome
  in
  { run }

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)

type workload = {
  distinct : int;
      (** distinct requests generated in set-up; an untraced run issues
          each at least once *)
  traced : int;
      (** the traced pass issues exactly the first this many, so its
          counts repeat exactly for a seed *)
  make : int -> job;  (** generate request [i] (set-up work) *)
}

let workloads =
  let sized ~distinct ~traced make =
    if !small then { distinct = 2; traced = 2; make }
    else { distinct; traced; make }
  in
  [
    ( "plan-even",
      sized ~distinct:384 ~traced:50 (fun i ->
          plan_job ~certify_as:"even-opt" i (even_instance i)) );
    ( "plan-mixed",
      sized ~distinct:384 ~traced:40 (fun i ->
          plan_job ~certify_as:"auto" i (mixed_instance i)) );
    ( "serve-stream",
      sized ~distinct:512 ~traced:16 (fun j ->
          serve_job j (serve_stream j)) );
  ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let attempted = ref 0
let failed = ref 0

(* One request, counted; an exception is a failure, never an abort. *)
let issue job ~jobs =
  incr attempted;
  let o = try job.run ~jobs with _ -> failed_outcome in
  if not o.ok then incr failed;
  o

type pass = {
  wall : float;
  latencies : float list;
  done_ : (int * int) list;
      (** (request index, items) per request, in order; outcomes
          themselves are dropped so the run retains no outputs *)
}

(* Set in the untraced run: time the calibration kernel between
   requests and between set-ups (see calib.ml). *)
let calibrating = ref false

(* Closed loop: request [k mod distinct] after request [k - 1]
   completed, until the deadline has passed and at least [min] were
   issued. *)
let loop ~jobs ~seconds ~min ~each (reqs : job array) =
  let t_start = now () in
  let deadline = t_start +. seconds in
  let lat = ref [] and done_ = ref [] and k = ref 0 in
  while now () < deadline || !k < min do
    let i = !k mod Array.length reqs in
    Trace.request := !k;
    let o, t = timed (fun () -> Trace.span "request" (fun () -> issue reqs.(i) ~jobs)) in
    each o;
    if !calibrating then Calib.tick ();
    lat := t :: !lat;
    done_ := (i, o.items) :: !done_;
    incr k
  done;
  { wall = now () -. t_start; latencies = List.rev !lat; done_ = List.rev !done_ }

(* Replay exactly the requests of [p], in order: the wall time, items
   done, and each output's fingerprint. *)
let replay ~jobs (reqs : job array) p =
  let t0 = now () in
  let outs =
    List.map
      (fun (i, _) ->
        let o = issue reqs.(i) ~jobs in
        (o.items, Lazy.force o.fingerprint))
      p.done_
  in
  (now () -. t0, outs)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let metric name unit v =
  let v = if Float.is_finite v then v else 0.0 in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let print_result metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", " metrics)

let profile_json () =
  let env k = Option.value ~default:"" (Sys.getenv_opt k) in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"jobs\": %d, \"traced_jobs\": %d, \
     \"nproc\": %S, \"recommended_domain_count\": %d, \"MIGRATE_JOBS\": %S, \
     \"ocaml_version\": %S, \"commit\": %S}"
    !workload !seed jobs traced_jobs (env "PERFBENCH_NPROC")
    (Domain.recommended_domain_count ())
    (env "MIGRATE_JOBS") Sys.ocaml_version (env "PERFBENCH_COMMIT")

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* Input generation plus a warm-up over the first [warm_up] requests,
   repeated (3 to 9 times, until 3 s are spent) and the median
   reported, so that set-up time is steady enough to guard: one
   warm-up request alone made it follow the size of that one input. *)
let warm_up = 16

let setup w =
  let times = ref [] and reqs = ref [||] and spent = ref 0.0 in
  while
    List.length !times < 3 || (!spent < 3.0 && List.length !times < 9)
  do
    if !calibrating then Calib.tick ();
    let r, t =
      timed (fun () ->
          let reqs = Array.init w.distinct w.make in
          for i = 0 to min warm_up w.distinct - 1 do
            ignore (issue reqs.(i) ~jobs)
          done;
          reqs)
    in
    times := t :: !times;
    spent := !spent +. t;
    reqs := r
  done;
  (* the warm-ups are set-up; the loop issues those requests again *)
  attempted := 0;
  failed := 0;
  (!reqs, Stats.median !times)

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                *)

let end_to_end w =
  calibrating := true;
  Calib.warm_up ();
  let reqs, setup_s = setup w in
  (* quality figures come from the first pass over the distinct
     requests, so they repeat exactly for a seed *)
  let rounds = ref 0 and lb = ref 0 and hist = Stats.hist () and seen = ref 0 in
  let each o =
    if !seen < w.distinct then begin
      incr seen;
      let r, l = Lazy.force o.quality in
      rounds := !rounds + r;
      lb := !lb + l;
      List.iter
        (fun (k, c) -> for _ = 1 to c do Stats.add hist k done)
        (Lazy.force o.completion)
    end
  in
  let p = loop ~jobs ~seconds:!seconds ~min:w.distinct ~each reqs in
  (* Every distinct request counts once, with the median of its
     latencies, so that the figures do not depend on how many requests
     the host's speed let the loop repeat. *)
  let by_req = Array.make (Array.length reqs) [] in
  let items = Array.make (Array.length reqs) 0 in
  List.iter2
    (fun (i, it) t ->
      by_req.(i) <- t :: by_req.(i);
      items.(i) <- it)
    p.done_ p.latencies;
  let seen_reqs =
    List.filter (fun i -> by_req.(i) <> []) (List.init (Array.length reqs) Fun.id)
  in
  let latencies = List.map (fun i -> Stats.median by_req.(i)) seen_reqs in
  let items = Array.fold_left ( + ) 0 items in
  let busy = List.fold_left ( +. ) 0.0 latencies in
  Printf.eprintf "%s: %d requests (%d distinct) in %.2f s\n%!" !workload
    (List.length p.done_) (List.length latencies) p.wall;
  let request_p50 = Stats.median latencies
  and request_p90 = Stats.quantile 0.9 latencies in
  (* the wall times themselves, before calibration *)
  Printf.printf
    "{\"wall\": {\"setup_s\": %.6g, \"request_s.p50\": %.6g, \
     \"request_s.p90\": %.6g, \"busy_s\": %.6g, \"calib_kernel_s\": %.6g, \
     \"calib_samples\": %d, \"factor\": %.6g}}\n"
    setup_s request_p50 request_p90 busy (Calib.median_s ())
    (List.length !Calib.samples) (Calib.factor ());
  let f = Calib.factor () in
  print_result
    [
      metric "setup_s" "s" (f *. setup_s);
      metric "request_s.p50" "s" (f *. request_p50);
      metric "request_s.p90" "s" (f *. request_p90);
      metric "items_per_s" "items/s" (float_of_int items /. (f *. busy));
      metric "rounds_over_lb" "ratio" (float_of_int !rounds /. float_of_int (max 1 !lb));
      metric "request_rounds.p50" "rounds" (Stats.hist_quantile 0.5 hist);
      metric "request_rounds.p90" "rounds" (Stats.hist_quantile 0.9 hist);
      metric "heap_peak_mb" "MB" (heap_mb ());
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                   *)

(* Stand-alone layer probes, timed from outside. *)
let journal_append_ms n =
  let path = Filename.concat !out_dir (Printf.sprintf "journal.%d" (Unix.getpid ())) in
  rm_rf path;
  let j, _ = Distproto.Journal.open_ path in
  let edges = List.init 40 (fun e -> e * 7) in
  let times =
    List.init n (fun round ->
        snd
          (timed (fun () ->
               Distproto.Journal.append j
                 (Distproto.Journal.Round_committed { round; edges }))))
  in
  Distproto.Journal.close j;
  rm_rf path;
  List.map (fun t -> 1000.0 *. t) times

let net_roundtrip_us n =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Distproto.Net.of_fd a and cb = Distproto.Net.of_fd b in
  let msg = Distproto.Message.Round_start { round = 1; edges = List.init 40 Fun.id } in
  let ack = Distproto.Message.Commit { round = 1 } in
  let times =
    List.init n (fun _ ->
        snd
          (timed (fun () ->
               Distproto.Net.send ca msg;
               ignore (Distproto.Net.recv cb);
               Distproto.Net.send cb ack;
               ignore (Distproto.Net.recv ca))))
  in
  Distproto.Net.close ca;
  Distproto.Net.close cb;
  List.map (fun t -> 1e6 *. t) times

let with_pool_ms n =
  List.init n (fun _ ->
      1000.0
      *. snd
           (timed (fun () -> Exec.with_pool ~jobs:traced_jobs (fun _ -> ()))))

(* The distributed runner, once, on one instance: fork, socketpair
   IPC, fsync'd journal commits and worker compute, certified and
   byte-compared like any request.  Returns (rounds, wall, messages,
   committed rounds). *)
let dist_probe () =
  let job = dist_job 0 (dist_instance 0) in
  M.Instr.reset ();
  let o, t = timed (fun () -> issue job ~jobs) in
  let snap = M.Instr.snapshot () in
  let c k = Option.value ~default:0 (List.assoc_opt k snap.M.Instr.counters) in
  (o.rounds, t, c "dist.messages", c "dist.rounds")

let per_layer w =
  let reqs, _ = setup w in
  (* first, while this process has never spawned a domain *)
  let dist_rounds, dist_s, dist_messages, dist_committed = dist_probe () in
  (* traced pass *)
  Trace.enabled := true;
  M.Instr.reset ();
  let p2 =
    loop ~jobs:traced_jobs ~seconds:0.0 ~min:w.traced
      ~each:(fun o -> Trace.span "layers" o.layers)
      reqs
  in
  let snap = M.Instr.snapshot () in
  Trace.enabled := false;
  let n_req = List.length p2.done_ in
  (* the same requests untraced, for the tracing overhead *)
  let wall2, outs2 = replay ~jobs:traced_jobs reqs p2 in
  (* and at jobs 1: speedup, allocation (Gc counts the calling domain
     only, so bytes/item is measured where all work is on it) and the
     byte-identity of outputs across jobs *)
  let g0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let wall1, outs1 = replay ~jobs:1 reqs p2 in
  let a1 = Gc.allocated_bytes () and g1 = Gc.quick_stat () in
  List.iter2
    (fun (_, a) (_, b) ->
      incr attempted;
      if a <> b then incr failed)
    outs1 outs2;
  let items = List.fold_left (fun acc (it, _) -> acc + it) 0 outs1 in
  let per_req x = float_of_int x /. float_of_int (max 1 n_req) in
  (* stand-alone probes *)
  let appends = journal_append_ms 40 in
  let trips = net_roundtrip_us 200 in
  let pools = with_pool_ms 30 in
  let counter k = float_of_int (Option.value ~default:0 (List.assoc_opt k snap.M.Instr.counters)) in
  let timer k =
    match List.assoc_opt k snap.M.Instr.timers with
    | Some s -> s.M.Instr.total_s
    | None -> 0.0
  in
  let timer_count k =
    match List.assoc_opt k snap.M.Instr.timers with Some s -> s.M.Instr.count | None -> 0
  in
  let busy =
    List.fold_left
      (fun acc (k, s) ->
        if String.starts_with ~prefix:"exec.domain" k then acc +. s.M.Instr.total_s else acc)
      0.0 snap.M.Instr.timers
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let request_s = Trace.total "request" in
  let certify_s =
    Trace.total "certify.check" +. Trace.total "certify.certify_service"
    +. Trace.total "certify.certify_execution"
  in
  let spans = Trace.count () in
  Trace.write ~profile:(profile_json ())
    (Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed));
  Printf.printf "{\"profile\": %s}\n" (profile_json ());
  print_result
    [
      metric "lower_bounds.s" "s" !lb_s;
      metric "lower_bounds.share" "ratio" (ratio !lb_s !lb_solve_s);
      metric "even_opt.pad_orient.s" "s" (timer "even_opt.pad_orient");
      metric "even_opt.decompose.s" "s" (timer "even_opt.decompose");
      metric "flow.bfs_phases" "count" (counter "flow.bfs_phases");
      metric "flow.augmenting_paths" "count" (counter "flow.augmenting_paths");
      metric "flow.paths_per_phase" "ratio"
        (ratio (counter "flow.augmenting_paths") (counter "flow.bfs_phases"));
      metric "bmatch.components" "count" (counter "bmatch.components");
      metric "hetero.phase1.s" "s" (timer "hetero.phase1");
      metric "hetero.refine.s" "s" (timer "hetero.refine");
      metric "hetero.escalations" "count" (counter "hetero.escalations");
      metric "recolor.kempe_walks" "count" (counter "recolor.kempe_walks");
      metric "recolor.flip_ratio" "ratio"
        (ratio (counter "recolor.kempe_flips") (counter "recolor.kempe_walks"));
      metric "pipeline.decompose.s" "s" (Trace.total "instance.decompose");
      metric "pipeline.components" "count" (counter "pipeline.components");
      metric "exec.speedup_j2" "ratio" (ratio wall1 wall2);
      metric "exec.with_pool_ms.p50" "ms" (Stats.median pools);
      metric "exec.with_pool_ms.p90" "ms" (Stats.quantile 0.9 pools);
      metric "exec.tasks" "count" (counter "exec.tasks");
      metric "exec.busy_frac" "ratio" (ratio busy (float_of_int traced_jobs *. request_s));
      metric "certify.s" "s" certify_s;
      metric "certify.share" "ratio" (ratio certify_s request_s);
      metric "engine.plans" "count" (counter "engine.plans");
      metric "engine.replans" "count" (counter "engine.replans");
      metric "engine.plan.s" "s" (timer "engine.plan");
      metric "service.epochs" "count" (counter "service.epochs");
      metric "service.epoch_ms.mean" "ms"
        (1000.0 *. ratio (timer "service.epoch") (float_of_int (timer_count "service.epoch")));
      metric "journal.append_ms.p50" "ms" (Stats.median appends);
      metric "journal.append_ms.p90" "ms" (Stats.quantile 0.9 appends);
      metric "net.roundtrip_us.p50" "us" (Stats.median trips);
      metric "dist.round_ms" "ms"
        (1000.0 *. ratio dist_s (float_of_int (max 1 dist_rounds)));
      metric "dist.messages_per_round" "ratio"
        (ratio (float_of_int dist_messages) (float_of_int dist_committed));
      metric "alloc.bytes_per_item.jobs1" "B/item"
        (ratio (a1 -. a0) (float_of_int items));
      metric "gc.minor_per_request" "count"
        (per_req (g1.Gc.minor_collections - g0.Gc.minor_collections));
      metric "gc.major_per_request" "count"
        (per_req (g1.Gc.major_collections - g0.Gc.major_collections));
      metric "trace.requests" "count" (float_of_int n_req);
      metric "trace.spans" "count" (float_of_int spans);
      metric "trace.overhead_s" "s" (p2.wall -. Trace.total "layers" -. wall2);
    ]

let () =
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w ->
      (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      if !traced then per_layer w
      else begin
        Printf.printf "{\"profile\": %s}\n" (profile_json ());
        end_to_end w
      end

module Multigraph = Mgraph.Multigraph

type fault =
  | Fail_transfer of int
  | Crash_disk of int
  | Slow_disk of int

type policy = {
  policy_name : string;
  decide : round:int -> attempted:int list -> fault list;
}

let no_faults =
  { policy_name = "none"; decide = (fun ~round:_ ~attempted:_ -> []) }

type quarantine_reason =
  | Crashed of int
  | Retries_exhausted of int
  | Round_budget_exhausted

let quarantine_reason_to_string = function
  | Crashed d -> Printf.sprintf "disk %d crashed" d
  | Retries_exhausted n -> Printf.sprintf "%d failed attempts" n
  | Round_budget_exhausted -> "round budget exhausted"

type outcome = {
  execution : Certify.execution;
  schedule : Schedule.t;
  completed : int;
  quarantined : (int * quarantine_reason) list;
  crashed : int list;
  degraded : (int * int) list;
  replans : int;
  retries : int;
  total_rounds : int;
  idle_rounds : int;
  rounds_lost : int;
  residual : int list;
  remaining_plan : int list array;
}

exception Plan_rejected of string

(* instrumentation: the engine's always-on flight counters *)
let c_plans = Instr.counter "engine.plans"
let c_replans = Instr.counter "engine.replans"
let c_rounds = Instr.counter "engine.rounds"
let c_idle = Instr.counter "engine.idle_rounds"
let c_retries = Instr.counter "engine.retried_edges"
let c_quarantined = Instr.counter "engine.quarantined_edges"
let c_crashes = Instr.counter "engine.crashes"
let c_slowdowns = Instr.counter "engine.slowdowns"
let c_lost = Instr.counter "engine.rounds_lost"
let t_plan = Instr.timer "engine.plan"
let t_run = Instr.timer "engine.run"

(* Pending-edge status.  [eligible_at] implements the exponential
   round-backoff: a transiently failed transfer is withheld from
   re-planning until its window expires. *)

let run ?rng ?(jobs = 1) ?(max_retries = 5) ?(backoff_base = 1)
    ?round_budget ?stop_after ?(incremental = true) ?(warm = [||])
    ?(dirty_disks = []) ?(choose = Pipeline.auto_choose) ~policy inst =
  if max_retries < 0 then invalid_arg "Engine.run: max_retries must be >= 0";
  if backoff_base < 1 then invalid_arg "Engine.run: backoff_base must be >= 1";
  (match stop_after with
  | Some s when s < 1 -> invalid_arg "Engine.run: stop_after must be >= 1"
  | _ -> ());
  let g = Instance.graph inst in
  let n = Instance.n_disks inst and m = Instance.n_items inst in
  let round_budget =
    match round_budget with
    | Some b ->
        if b < 1 then invalid_arg "Engine.run: round_budget must be >= 1";
        b
    | None -> (16 * m) + 64
  in
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x0e17 |] in
  (* mutable execution state *)
  let caps = Array.copy (Instance.caps inst) in
  let alive = Array.make n true in
  let completed = Array.make m false in
  let quarantined : quarantine_reason option array = Array.make m None in
  let attempts = Array.make m 0 in
  let eligible_at = Array.make m 0 in
  let pending = ref m in
  let quarantine_log = ref [] (* reverse event order *) in
  let pending_edge e = not completed.(e) && quarantined.(e) = None in
  let quarantine e reason =
    if pending_edge e then begin
      quarantined.(e) <- Some reason;
      quarantine_log := (e, reason) :: !quarantine_log;
      Instr.bump c_quarantined;
      decr pending
    end
  in
  (* disks whose capacity changed, or that lost quarantined edges,
     since the plan currently executing was produced: their components
     must re-solve, everything else warm-starts *)
  let dirty = Array.make n false in
  List.iter
    (fun d ->
      if d < 0 || d >= n then
        invalid_arg "Engine.run: dirty_disks out of range";
      dirty.(d) <- true)
    dirty_disks;
  let clock = ref 0 in
  let idle = ref 0 in
  let lost = ref 0 in
  let retries = ref 0 in
  let replans = ref 0 in
  let plans = ref 0 in
  let replan_bounds = ref [] (* reverse order *) in
  let log = ref [] (* reverse order of executed rounds *) in
  (* a warm start seeds the plan cursor: the first [make_plan] treats
     these rounds as the currently executing plan, so components they
     still cover project verbatim instead of re-solving *)
  let future =
    ref (Array.map (List.filter (fun e -> e >= 0 && e < m)) warm)
  in
  let fp = ref 0 in
  let needs_replan = ref true in
  let crash_list = ref [] in

  let make_plan () =
    let eligible = Array.make m false in
    let any = ref false in
    for e = 0 to m - 1 do
      if pending_edge e && eligible_at.(e) <= !clock then begin
        eligible.(e) <- true;
        any := true
      end
    done;
    if not !any then None
    else begin
      let sub_g, sub_map = Multigraph.sub g (fun e -> eligible.(e)) in
      let sub_inst = Instance.create sub_g ~caps:(Array.copy caps) in
      (* which eligible edges the currently executing plan still
         covers: those components can keep their rounds verbatim *)
      let in_old = Array.make m false in
      let old_rounds =
        let len = Array.length !future in
        if !fp >= len then [||]
        else
          Array.map
            (List.filter (fun e -> eligible.(e)))
            (Array.sub !future !fp (len - !fp))
      in
      Array.iter (List.iter (fun e -> in_old.(e) <- true)) old_rounds;
      let comps = List.map snd (snd (Instance.active_components sub_inst)) in
      (* component id per global eligible edge, and the dirty test:
         a component re-solves when a disk of its changed (capacity,
         crash fallout) or when it holds an edge the old plan no
         longer schedules (a retry coming out of backoff) *)
      let comp_of = Array.make m (-1) in
      List.iteri
        (fun ci c ->
          Array.iter (fun se -> comp_of.(sub_map.(se)) <- ci) c.Instance.edges)
        comps;
      let comp_dirty =
        List.map
          (fun c ->
            (not incremental)
            || Array.exists (fun v -> dirty.(v)) c.Instance.nodes
            || Array.exists (fun se -> not in_old.(sub_map.(se))) c.Instance.edges)
          comps
      in
      let n_comps = List.length comps in
      let dirty_of_comp = Array.of_list comp_dirty in
      (* clean components: project the old plan's remaining rounds *)
      let projections = Array.make n_comps [] (* reverse round lists *) in
      Array.iter
        (fun round ->
          let per_comp = Array.make n_comps [] in
          List.iter
            (fun e ->
              let ci = comp_of.(e) in
              if ci >= 0 && not dirty_of_comp.(ci) then
                per_comp.(ci) <- e :: per_comp.(ci))
            round;
          for ci = 0 to n_comps - 1 do
            if per_comp.(ci) <> [] then
              projections.(ci) <- List.rev per_comp.(ci) :: projections.(ci)
          done)
        old_rounds;
      let clean_parts =
        List.filteri (fun ci _ -> not dirty_of_comp.(ci)) (List.init n_comps Fun.id)
        |> List.map (fun ci -> Array.of_list (List.rev projections.(ci)))
      in
      (* dirty components: one sub-instance, re-solved through the
         pipeline (multi-component => parallel across [jobs]) *)
      let any_dirty = List.exists Fun.id comp_dirty in
      let dirty_part =
        if not any_dirty then None
        else begin
          let dirty_edge = Array.make m false in
          List.iteri
            (fun ci c ->
              if dirty_of_comp.(ci) then
                Array.iter
                  (fun se -> dirty_edge.(sub_map.(se)) <- true)
                  c.Instance.edges)
            comps;
          let d_g, d_map = Multigraph.sub g (fun e -> dirty_edge.(e)) in
          let d_inst = Instance.create d_g ~caps:(Array.copy caps) in
          let sched, _report = Pipeline.solve ~rng ~jobs ~choose d_inst in
          incr plans;
          Instr.bump c_plans;
          if !plans > 1 then begin
            incr replans;
            Instr.bump c_replans
          end;
          Some
            (Array.map
               (fun round -> List.map (fun se -> d_map.(se)) round)
               (Schedule.rounds sched))
        end
      in
      (* merge round-wise: the parts live on disjoint disks, so the
         union of their i-th rounds is feasible *)
      let parts =
        clean_parts @ (match dirty_part with None -> [] | Some p -> [ p ])
      in
      let len = List.fold_left (fun acc p -> max acc (Array.length p)) 0 parts in
      let merged =
        Array.init len (fun i ->
            List.concat_map
              (fun p -> if i < Array.length p then p.(i) else [])
              parts)
      in
      (* certify the merged plan against the eligible residual before
         trusting it with real transfers; its certified length funds
         the execution's round budget *)
      let inv = Array.make m (-1) in
      Array.iteri (fun se e -> inv.(e) <- se) sub_map;
      let sub_sched =
        Schedule.of_rounds
          (Array.map (fun round -> List.map (fun e -> inv.(e)) round) merged)
      in
      let verdict =
        Certify.check ~lb:(Lower_bounds.lb1 sub_inst) sub_inst sub_sched
      in
      if not (Certify.ok verdict) then
        raise
          (Plan_rejected
             (String.concat "; "
                (List.map Certify.violation_to_string
                   verdict.Certify.violations)));
      replan_bounds := Array.length merged :: !replan_bounds;
      Array.fill dirty 0 n false;
      Some merged
    end
  in

  let stopped () =
    match stop_after with Some s -> !clock >= s | None -> false
  in
  Instr.time t_run (fun () ->
      while !pending > 0 && !clock < round_budget && not (stopped ()) do
        if !needs_replan || !fp >= Array.length !future then begin
          match Instr.time t_plan make_plan with
          | None ->
              (* everything pending is backing off: burn an idle round *)
              incr clock;
              incr idle;
              Instr.bump c_idle
          | Some rounds ->
              future := rounds;
              fp := 0;
              needs_replan := false
        end
        else begin
          let attempted = List.filter pending_edge (!future).(!fp) in
          incr fp;
          if attempted = [] then begin
            incr clock;
            incr idle;
            Instr.bump c_idle
          end
          else begin
            let faults = policy.decide ~round:!clock ~attempted in
            let in_attempt = Hashtbl.create 16 in
            List.iter (fun e -> Hashtbl.replace in_attempt e ()) attempted;
            let crashes = ref [] and slows = ref [] in
            let failed = Hashtbl.create 8 in
            List.iter
              (fun f ->
                match f with
                | Crash_disk d ->
                    if d >= 0 && d < n && alive.(d)
                       && not (List.mem d !crashes)
                    then crashes := d :: !crashes
                | Slow_disk d ->
                    if d >= 0 && d < n && alive.(d) && not (List.mem d !slows)
                    then slows := d :: !slows
                | Fail_transfer e ->
                    if Hashtbl.mem in_attempt e then Hashtbl.replace failed e ())
              faults;
            let crashes = List.rev !crashes and slows = List.rev !slows in
            let crashed_now = Array.make n false in
            List.iter (fun d -> crashed_now.(d) <- true) crashes;
            let touches_crash e =
              let u, v = Multigraph.endpoints g e in
              crashed_now.(u) || crashed_now.(v)
            in
            let done_now =
              List.filter
                (fun e -> not (Hashtbl.mem failed e) && not (touches_crash e))
                attempted
            in
            List.iter
              (fun e ->
                completed.(e) <- true;
                decr pending)
              done_now;
            let wasted = List.length attempted - List.length done_now in
            lost := !lost + wasted;
            Instr.bump ~by:wasted c_lost;
            (* record the round before mutating disk state: the crash
               and slowdown land after it *)
            let slowed =
              List.map (fun d -> (d, max 1 (caps.(d) / 2))) slows
            in
            log :=
              {
                Certify.attempted;
                completed = done_now;
                crashed = crashes;
                slowed;
              }
              :: !log;
            Instr.bump c_rounds;
            (* crashes: the disk is gone — everything still pending on
               it is quarantined, and its neighbors' components must
               re-plan *)
            List.iter
              (fun d ->
                alive.(d) <- false;
                crash_list := d :: !crash_list;
                Instr.bump c_crashes;
                Multigraph.iter_incident g d (fun e ->
                    if pending_edge e then begin
                      let u, v = Multigraph.endpoints g e in
                      dirty.(u) <- true;
                      dirty.(v) <- true;
                      quarantine e (Crashed d)
                    end);
                needs_replan := true)
              crashes;
            (* slowdowns: halve the constraint (>= 1); the remaining
               plan may now overload the disk, so its component is
               dirty *)
            List.iter
              (fun (d, c) ->
                if c < caps.(d) then begin
                  caps.(d) <- c;
                  dirty.(d) <- true;
                  needs_replan := true;
                  Instr.bump c_slowdowns
                end)
              slowed;
            (* transient failures: bounded retry with exponential
               round-backoff, then quarantine *)
            List.iter
              (fun e ->
                if pending_edge e then begin
                  attempts.(e) <- attempts.(e) + 1;
                  if attempts.(e) > max_retries then
                    quarantine e (Retries_exhausted attempts.(e))
                  else begin
                    incr retries;
                    Instr.bump c_retries;
                    eligible_at.(e) <-
                      !clock + 1
                      + (backoff_base * (1 lsl min 20 (attempts.(e) - 1)))
                  end
                end)
              (List.filter (Hashtbl.mem failed) attempted);
            incr clock
          end
        end
      done;
      (* graceful degradation: a run that exhausts its round budget
         reports the leftovers instead of spinning — unless the caller
         asked to stop after an epoch, in which case the leftovers are
         the residual it will hand to the next epoch *)
      if not (stopped ()) then
        for e = 0 to m - 1 do
          if pending_edge e then quarantine e Round_budget_exhausted
        done);
  let residual = List.filter pending_edge (List.init m Fun.id) in
  let remaining_plan =
    let len = Array.length !future in
    if !fp >= len then [||]
    else Array.map (List.filter pending_edge) (Array.sub !future !fp (len - !fp))
  in
  let log = List.rev !log in
  let quarantine_list = List.rev !quarantine_log in
  let execution =
    {
      Certify.instance = inst;
      log;
      idle_rounds = !idle;
      quarantined = List.map fst quarantine_list;
      replan_bounds = List.rev !replan_bounds;
    }
  in
  let schedule =
    Schedule.of_rounds
      (Array.of_list (List.map (fun r -> r.Certify.completed) log))
  in
  let degraded =
    List.filter_map
      (fun d ->
        if caps.(d) < Instance.cap inst d then Some (d, caps.(d)) else None)
      (List.init n Fun.id)
  in
  {
    execution;
    schedule;
    completed = m - List.length quarantine_list - List.length residual;
    quarantined = quarantine_list;
    crashed = List.rev !crash_list;
    degraded;
    replans = !replans;
    retries = !retries;
    total_rounds = !clock;
    idle_rounds = !idle;
    rounds_lost = !lost;
    residual;
    remaining_plan;
  }

(* ------------------------------------------------------------------ *)
(* Sharding hooks for the distributed control plane (lib/dist): a
   pure partition of disks — and thus edges — across N workers.
   Contiguous disk ranges keep a worker's traffic local to its
   partition; an edge belongs to the worker owning its lower endpoint,
   so every edge has exactly one owner and a resumed coordinator
   re-derives the same split from (instance, workers) alone. *)

let shard_of inst ~workers e =
  if workers < 1 then invalid_arg "Engine.shard_of: workers must be >= 1";
  let n = Instance.n_disks inst in
  let m = Instance.n_items inst in
  if e < 0 || e >= m then invalid_arg "Engine.shard_of: edge out of range";
  let u, v = Multigraph.endpoints (Instance.graph inst) e in
  let d = min u v in
  min (workers - 1) (d * workers / n)

let shard_round inst ~workers round =
  let parts = Array.make workers [] in
  List.iter
    (fun e ->
      let w = shard_of inst ~workers e in
      parts.(w) <- e :: parts.(w))
    round;
  Array.map List.rev parts

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "rounds:      %d (%d idle, %d transfers lost to faults)@,\
     completed:   %d/%d items@,\
     replans:     %d (retries %d)"
    o.total_rounds o.idle_rounds o.rounds_lost o.completed
    (Instance.n_items o.execution.Certify.instance)
    o.replans o.retries;
  if o.crashed <> [] then
    Format.fprintf ppf "@,crashed:     %s"
      (String.concat ", " (List.map string_of_int o.crashed));
  if o.degraded <> [] then
    Format.fprintf ppf "@,degraded:    %s"
      (String.concat ", "
         (List.map
            (fun (d, c) -> Printf.sprintf "disk %d -> c=%d" d c)
            o.degraded));
  if o.residual <> [] then
    Format.fprintf ppf "@,residual:    %d item(s) left for the next epoch"
      (List.length o.residual);
  if o.quarantined <> [] then begin
    Format.fprintf ppf "@,quarantined: %d item(s)" (List.length o.quarantined);
    List.iter
      (fun (e, reason) ->
        Format.fprintf ppf "@,  - item %d: %s" e
          (quarantine_reason_to_string reason))
      o.quarantined
  end;
  Format.fprintf ppf "@]"

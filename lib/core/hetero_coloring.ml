module Multigraph = Mgraph.Multigraph
module Ec = Coloring.Edge_coloring
module Recolor = Coloring.Recolor

let log_src =
  Logs.Src.create "migration.hetero"
    ~doc:"Section V general algorithm: phases, flips, escalations"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  palette : int;
  lb : int;
  phase2_edges : int;
  escalations : int;
  swaps : int;
}

(* Structured instrumentation (Migration.Instr): phase spans plus the
   counters the per-run [stats] record already tracks, so metrics
   aggregate across pipeline components and repeated runs. *)
let t_phase1 = Probes.timer "hetero.phase1"
let t_phase2 = Probes.timer "hetero.phase2"
let t_refine = Probes.timer "hetero.refine"
let c_swaps = Probes.counter "hetero.lean_swaps"
let c_escalations = Probes.counter "hetero.escalations"
let c_phase2_edges = Probes.counter "hetero.phase2_edges"

(* Lemma 5.3 move: uncolor a colored ("lean") edge adjacent to the
   stuck edge, color the stuck edge, then recolor the lean edge.  All
   or nothing: reverts on failure. *)
let try_lean_swap t ctx ?rng e =
  let g = Ec.graph t in
  let u, v = Multigraph.endpoints g e in
  let neighbors =
    List.filter
      (fun f -> f <> e && Ec.color_of t f <> None)
      (Multigraph.incident g u @ Multigraph.incident g v)
  in
  let rec loop k = function
    | [] -> false
    | _ when k = 0 -> false
    | f :: rest ->
        (* speculative: the failed attempts below may leave flips
           behind that invalidate f's old color, so roll back wholesale *)
        let snapshot = Ec.copy t in
        Ec.unassign t f;
        if
          Recolor.try_color_edge_ctx t ctx ?rng e
          && Recolor.try_color_edge_ctx t ctx ?rng f
        then true
        else begin
          Ec.restore ~snapshot t;
          loop (k - 1) rest
        end
  in
  loop 16 neighbors

(* Edge order heuristic: hardest first — endpoints with the largest
   degree-to-capacity ratio get first pick of the palette.  Descending
   weight, ties by ascending edge id, by one counting sort over the
   weights: O(m + Δ). *)
let edge_order inst =
  let g = Instance.graph inst in
  let m = Multigraph.n_edges g in
  let ratio = Array.init (Instance.n_disks inst) (Instance.degree_ratio inst) in
  let weight =
    Array.init m (fun e ->
        let u, v = Multigraph.endpoints g e in
        ratio.(u) + ratio.(v))
  in
  let top = Array.fold_left max 0 weight in
  (* [start.(w)]: where the edges of weight [w] begin, heaviest first *)
  let start = Array.make (top + 1) 0 in
  Array.iter (fun w -> start.(w) <- start.(w) + 1) weight;
  let next = ref 0 in
  for w = top downto 0 do
    let count = start.(w) in
    start.(w) <- !next;
    next := !next + count
  done;
  let order = Array.make m 0 in
  Array.iteri
    (fun e w ->
      order.(start.(w)) <- e;
      start.(w) <- start.(w) + 1)
    weight;
  order

let phase1 t ctx ?rng order =
  let stuck = ref [] in
  Array.iter
    (fun e ->
      if not (Recolor.try_color_edge_ctx t ctx ?rng ~flip_attempts:48 e) then
        stuck := e :: !stuck)
    order;
  (* retry passes: earlier flips keep reshaping the landscape *)
  let rec retry passes stuck =
    if passes = 0 || stuck = [] then stuck
    else
      retry (passes - 1)
        (List.filter
           (fun e ->
             not (Recolor.try_color_edge_ctx t ctx ?rng ~flip_attempts:48 e))
           stuck)
  in
  retry 2 (List.rev !stuck)

(* Phase 2: color the residual simple graph G0 with fresh colors via
   node splitting + Vizing (Section V-C3). *)
let phase2 t inst g0_edges =
  if g0_edges <> [] then begin
    let g = Instance.graph inst in
    let keep = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.add keep e ()) g0_edges;
    let g0, mapping = Multigraph.sub g (Hashtbl.mem keep) in
    let sg0 = Split_graph.split g0 ~caps:(Instance.caps inst) in
    let vc = Coloring.Vizing.color sg0 in
    let base = Ec.n_colors t in
    let needed = Ec.n_colors vc in
    for _ = 1 to needed do
      ignore (Ec.add_color t)
    done;
    Multigraph.iter_edges sg0 (fun { Multigraph.id; _ } ->
        match Ec.color_of vc id with
        | Some c -> Ec.assign t mapping.(id) (base + c)
        | None ->
            (* contradicts Vizing's theorem — an implementation bug *)
            failwith
              (Printf.sprintf
                 "Hetero_coloring: edge %d left uncolored after phase 2"
                 mapping.(id)))
  end

let color ?rng inst =
  let g = Instance.graph inst in
  (* start from the strongest certified lower bound: any smaller palette
     is provably infeasible, so escalations below lb would be wasted *)
  let lb = Lower_bounds.lower_bound ?rng inst in
  let q0 = max 1 lb in
  let t = Ec.create g ~cap:(Instance.cap inst) ~colors:q0 in
  (* one walk scratch for the whole run: phase 1, the retry passes and
     the lean swaps all share it (it carries no cross-call state) *)
  let ctx = Recolor.make_ctx t in
  let swaps = ref 0 and escalations = ref 0 in
  Log.debug (fun m ->
      m "start: %d items, %d disks, palette %d (lb1 %d, lb %d)"
        (Instance.n_items inst) (Instance.n_disks inst) q0
        (Lower_bounds.lb1 inst) lb);
  let stuck =
    Probes.time t_phase1 (fun () -> phase1 t ctx ?rng (edge_order inst))
  in
  Log.debug (fun m -> m "phase 1 left %d stuck edges" (List.length stuck));
  (* lean-edge moves on the survivors *)
  let stuck =
    List.filter
      (fun e ->
        if try_lean_swap t ctx ?rng e then begin
          incr swaps;
          Probes.bump c_swaps;
          false
        end
        else true)
      stuck
  in
  (* G0 must stay simple (no two residual edges in parallel); parallel
     survivors trigger the witness escalation instead *)
  let seen_pairs = Hashtbl.create 16 in
  let g0 =
    List.filter
      (fun e ->
        let u, v = Multigraph.endpoints g e in
        let key = if u <= v then (u, v) else (v, u) in
        if Hashtbl.mem seen_pairs key then begin
          incr escalations;
          Probes.bump c_escalations;
          let c = Ec.add_color t in
          Ec.assign t e c;
          false
        end
        else begin
          Hashtbl.add seen_pairs key ();
          true
        end)
      stuck
  in
  Log.debug (fun m ->
      m "after lean swaps: %d edges to G0, %d escalations, %d swaps"
        (List.length g0) !escalations !swaps);
  Probes.bump ~by:(List.length g0) c_phase2_edges;
  Probes.time t_phase2 (fun () -> phase2 t inst g0);
  (* drop any colors that ended up unused before reporting the palette *)
  let used = Array.make (Ec.n_colors t) false in
  Multigraph.iter_edges g (fun { Multigraph.id; _ } ->
      match Ec.color_of t id with
      | Some c -> used.(c) <- true
      | None ->
          (* phases 1 and 2 color every edge — an implementation bug *)
          failwith
            (Printf.sprintf "Hetero_coloring: edge %d has no color" id));
  let palette = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
  let stats =
    {
      palette;
      lb;
      phase2_edges = List.length g0;
      escalations = !escalations;
      swaps = !swaps;
    }
  in
  (t, stats)

let schedule_stats ?rng inst =
  let t, stats = color ?rng inst in
  let sched = Schedule.of_coloring t in
  (* a palette above the certified bound sometimes carries slack the
     witness escalations left behind; the refine post-pass dissolves
     such rounds when possible (never worse, validated move by move) *)
  if Schedule.n_rounds sched > stats.lb then begin
    let sched', r = Probes.time t_refine (fun () -> Refine.refine inst sched) in
    if r.Refine.rounds_after < r.Refine.rounds_before then begin
      Log.debug (fun m ->
          m "refine reclaimed %d round(s)"
            (r.Refine.rounds_before - r.Refine.rounds_after));
      ({ stats with palette = Schedule.n_rounds sched' } |> fun stats ->
       (sched', stats))
    end
    else (sched, stats)
  end
  else (sched, stats)

let schedule ?rng inst = fst (schedule_stats ?rng inst)

module Arena = Mgraph.Arena

(* Dinic-level observability: one "phase" per BFS level graph that
   reaches the sink, one "augmenting path" per push out of the source
   that carries flow. *)
let c_phases = Probes.counter "flow.bfs_phases"
let c_paths = Probes.counter "flow.augmenting_paths"

type csr = {
  offsets : int array;
  arc_ids : int array;
  dsts : int array;
  caps : int array;
  level : int array;
  cursor : int array;
}

(* Dinic over raw CSR rows.  The sink is never expanded: that cannot
   change a level below the sink's, so the augmentations are those of
   a textbook run.  Source and sink keep their [level] slot at 0
   throughout; the sink's level in the current phase lives in [lt].
   Every other node this run reaches is queued, and its level is put
   back to -1 from the queue, so the work per phase scales with the
   part of the network the source reaches, not with the whole network. *)
let solve_csr g ~queue ~s ~t =
  let { offsets; arc_ids; dsts; caps; level; cursor } = g in
  let first = offsets.(s) and last = offsets.(s + 1) in
  let lt = ref (-1) in
  (* [u] is not re-entered while its own call runs (levels strictly
     increase along the path), so its cursor can live in a local *)
  let rec dfs u limit =
    if u = t then limit
    else begin
      let pushed = ref 0 in
      let c = ref cursor.(u) and continue = ref true in
      let next = level.(u) + 1 and stop = offsets.(u + 1) in
      while !continue && !c < stop do
        let a = arc_ids.(!c) in
        let v = dsts.(a) in
        let r = caps.(a) in
        if r > 0 && (level.(v) = next || (v = t && !lt = next)) then begin
          let room = limit - !pushed in
          let got = dfs v (if r < room then r else room) in
          if got > 0 then begin
            caps.(a) <- r - got;
            caps.(a lxor 1) <- caps.(a lxor 1) + got;
            pushed := !pushed + got;
            if !pushed = limit then continue := false
          end
          else incr c
        end
        else incr c
      done;
      cursor.(u) <- !c;
      !pushed
    end
  in
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    (* BFS level graph.  Nodes on the sink's level or beyond cannot lie
       on a shortest path, so their rows are left unexpanded. *)
    lt := -1;
    let tail = ref 0 and head = ref 0 in
    (* the row being expanded: the source's first, then each queued
       node's row *)
    let lo = ref first and hi = ref last and next = ref 1 in
    let expanding = ref true in
    while !expanding do
      for p = !lo to !hi - 1 do
        let a = arc_ids.(p) in
        if caps.(a) > 0 then begin
          let v = dsts.(a) in
          if level.(v) < 0 then begin
            level.(v) <- !next;
            queue.(!tail) <- v;
            incr tail
          end
          else if v = t && !lt < 0 then lt := !next
        end
      done;
      if !head < !tail && (!lt < 0 || level.(queue.(!head)) < !lt) then begin
        let u = queue.(!head) in
        incr head;
        lo := offsets.(u);
        hi := offsets.(u + 1);
        next := level.(u) + 1
      end
      else expanding := false
    done;
    let queued = !tail in
    if !lt < 0 then continue := false
    else begin
      Probes.bump c_phases;
      for i = 0 to queued - 1 do
        let u = queue.(i) in
        cursor.(u) <- offsets.(u)
      done;
      (* the blocking flow, one source arc at a time *)
      let p = ref first in
      while !p < last do
        let a = arc_ids.(!p) in
        let v = dsts.(a) in
        let r = caps.(a) in
        let got =
          if r > 0 && (level.(v) = 1 || (v = t && !lt = 1)) then dfs v r else 0
        in
        if got > 0 then begin
          Probes.bump c_paths;
          caps.(a) <- r - got;
          caps.(a lxor 1) <- caps.(a lxor 1) + got;
          total := !total + got
        end
        else incr p
      done
    end;
    for i = 0 to queued - 1 do
      level.(queue.(i)) <- -1
    done
  done;
  !total

let max_flow net ~s ~t =
  if s = t then invalid_arg "Max_flow.max_flow: s = t";
  let n = Flow_network.n_nodes net in
  let adj = Flow_network.freeze net in
  let offsets = adj.Flow_network.offsets and arc_ids = adj.Flow_network.arc_ids in
  let dsts, caps = Flow_network.raw net in
  let arena = Arena.local () in
  let hl = Arena.ints arena ~len:n ~fill:(-1) in
  let hc = Arena.ints arena ~len:n ~fill:0 in
  let hq = Arena.ints arena ~len:n ~fill:0 in
  let level = Arena.arr hl in
  level.(s) <- 0;
  level.(t) <- 0;
  let g = { offsets; arc_ids; dsts; caps; level; cursor = Arena.arr hc } in
  let total = solve_csr g ~queue:(Arena.arr hq) ~s ~t in
  Arena.release arena hq;
  Arena.release arena hc;
  Arena.release arena hl;
  total

let min_cut net ~s =
  let n = Flow_network.n_nodes net in
  let adj = Flow_network.freeze net in
  let offsets = adj.Flow_network.offsets and arc_ids = adj.Flow_network.arc_ids in
  let dsts, caps = Flow_network.raw net in
  let seen = Array.make n false in
  let arena = Arena.local () in
  let hq = Arena.ints arena ~len:n ~fill:0 in
  let q = Arena.arr hq in
  seen.(s) <- true;
  q.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    for p = offsets.(u) to offsets.(u + 1) - 1 do
      let a = arc_ids.(p) in
      let v = dsts.(a) in
      if (not seen.(v)) && caps.(a) > 0 then begin
        seen.(v) <- true;
        q.(!tail) <- v;
        incr tail
      end
    done
  done;
  Arena.release arena hq;
  seen

let conservation_ok net ~s ~t =
  let n = Flow_network.n_nodes net in
  let balance = Array.make n 0 in
  (* forward arcs are the even-indexed ones *)
  let a = ref 0 in
  let ok = ref true in
  while !a < Flow_network.n_arcs net do
    let f = Flow_network.flow net !a in
    if f < 0 then ok := false;
    balance.(Flow_network.src net !a) <- balance.(Flow_network.src net !a) - f;
    balance.(Flow_network.dst net !a) <- balance.(Flow_network.dst net !a) + f;
    a := !a + 2
  done;
  for v = 0 to n - 1 do
    if v <> s && v <> t && balance.(v) <> 0 then ok := false
  done;
  !ok

module Multigraph = Mgraph.Multigraph
module Arena = Mgraph.Arena

let lb1 inst =
  let best = ref 0 in
  for v = 0 to Instance.n_disks inst - 1 do
    let r = Instance.degree_ratio inst v in
    if r > !best then best := r
  done;
  !best

let ceil_div a b = (a + b - 1) / b

let gamma_of ~edges_inside ~cap_sum =
  if edges_inside = 0 then 0
  else begin
    let slots = cap_sum / 2 in
    if slots = 0 then max_int (* a single disk cannot transfer to itself *)
    else ceil_div edges_inside slots
  end

let gamma_term inst s =
  let g = Instance.graph inst in
  let members = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if Hashtbl.mem members v then invalid_arg "Lower_bounds.gamma_term: duplicate node";
      Hashtbl.add members v ())
    s;
  let edges_inside =
    Multigraph.fold_edges
      (fun { Multigraph.u; v; _ } acc ->
        if Hashtbl.mem members u && Hashtbl.mem members v then acc + 1 else acc)
      g 0
  in
  let cap_sum = List.fold_left (fun acc v -> acc + Instance.cap inst v) 0 s in
  gamma_of ~edges_inside ~cap_sum

(* Exact max over all subsets of [nodes] by subset DP.  With [i] and
   [j] the two lowest members of [mask],
     E(mask) = E(mask - i) + E(mask - j) - E(mask - i - j) + mult(i, j)
   (inclusion-exclusion: the edges inside [mask] either avoid [i], or
   avoid [j], or join [i] to [j]), so each subset costs O(1) amortized
   — the bit scans average under two steps over all masks.  [mult] is
   the symmetric multiplicity matrix between local indices, row-major
   [k * k].  Masks are visited in increasing order and the best is
   replaced only on a strict improvement.  Returns the best term and
   its witness subset. *)
let exact_on_nodes inst nodes mult =
  let k = Array.length nodes in
  if k = 0 || k > 24 then invalid_arg "Lower_bounds.exact_on_nodes";
  let size = 1 lsl k in
  let cap = Array.map (Instance.cap inst) nodes in
  let inside = Array.make size 0 in
  let capsum = Array.make size 0 in
  let best = ref 0 and best_mask = ref 0 in
  let rec lowest mask b =
    if mask land (1 lsl b) <> 0 then b else lowest mask (b + 1)
  in
  for mask = 1 to size - 1 do
    let i = lowest mask 0 in
    let rest = mask lxor (1 lsl i) in
    capsum.(mask) <- capsum.(rest) + cap.(i);
    if rest <> 0 then begin
      let j = lowest rest (i + 1) in
      let no_j = mask lxor (1 lsl j) in
      inside.(mask) <-
        inside.(rest) + inside.(no_j) - inside.(rest lxor (1 lsl j))
        + mult.((i * k) + j);
      if inside.(mask) > 0 then begin
        let t = gamma_of ~edges_inside:inside.(mask) ~cap_sum:capsum.(mask) in
        if t > !best && t < max_int then begin
          best := t;
          best_mask := mask
        end
      end
    end
  done;
  let witness = ref [] in
  for j = k - 1 downto 0 do
    if !best_mask land (1 lsl j) <> 0 then witness := nodes.(j) :: !witness
  done;
  (!best, !witness)

(* Randomized greedy densest-subset growth: from a random seed edge,
   repeatedly add the frontier node with the most edges into the
   current set, keeping the best Γ-term seen.

   Gains live in dense arrays over the CSR and are kept up to date as
   nodes join ([join]), so a step costs O(frontier + deg x).  The pick
   must be the one a gain table rebuilt each step would make when
   folded (see the mli's ordering contract): highest gain, then
   lowest bucket [Hashtbl.hash x land (b - 1)] for the table's bucket
   count [b], then — replayed only on such a tie — the node the rebuild
   scan would have met last.

   [skip u] drops the iteration seeded at an edge of [u] after drawing
   it, so the draws on [rng] do not depend on [skip]. *)
let search ~skip inst rng iters =
  let g = Instance.graph inst in
  let n = Multigraph.n_nodes g and m = Multigraph.n_edges g in
  if m = 0 then (0, [])
  else begin
    let csr = Multigraph.freeze g in
    let offsets = csr.Multigraph.Csr.offsets
    and nbrs = csr.Multigraph.Csr.neighbors in
    let arena = Arena.local () in
    (* [member.(v) = it]: [v] is in iteration [it]'s subset;
       [touched.(v) = it]: [v] is a member or on the frontier, and
       [gain.(v)] counts its edges into the subset; [mark] flags the
       candidates of a tie replay *)
    let hmember = Arena.ints arena ~len:n ~fill:0
    and htouched = Arena.ints arena ~len:n ~fill:0
    and hgain = Arena.ints arena ~len:n ~fill:0
    and hfront = Arena.ints arena ~len:n ~fill:0
    and hmark = Arena.ints arena ~len:n ~fill:0
    and hhash = Arena.ints arena ~len:n ~fill:0 in
    let member = Arena.arr hmember and touched = Arena.arr htouched in
    let gain = Arena.arr hgain and front = Arena.arr hfront in
    let mark = Arena.arr hmark and hash = Arena.arr hhash in
    for v = 0 to n - 1 do
      hash.(v) <- Hashtbl.hash v
    done;
    (* [front.(0 .. nfront-1)] holds every node touched this iteration
       as a non-member; [live] of them are still outside the subset *)
    let nfront = ref 0 and live = ref 0 and marks = ref 0 in
    let join members it x =
      Hashtbl.add members x ();
      member.(x) <- it;
      if touched.(x) = it then decr live;
      touched.(x) <- it;
      for p = offsets.(x) to offsets.(x + 1) - 1 do
        let y = nbrs.(p) in
        if touched.(y) <> it then begin
          touched.(y) <- it;
          gain.(y) <- 1;
          front.(!nfront) <- y;
          incr nfront;
          incr live
        end
        else if member.(y) <> it then gain.(y) <- gain.(y) + 1
      done
    in
    let pick members it =
      (* the rebuilt table starts at 16 buckets and doubles whenever
         its size exceeds twice the bucket count *)
      let buckets = ref 16 in
      while !live > 2 * !buckets do
        buckets := 2 * !buckets
      done;
      let mask = !buckets - 1 in
      let bg = ref 0 and bb = ref 0 and bx = ref (-1) and ties = ref 0 in
      for i = 0 to !nfront - 1 do
        let x = front.(i) in
        if member.(x) <> it && gain.(x) >= !bg then begin
          let bk = hash.(x) land mask in
          if gain.(x) > !bg || bk < !bb then begin
            bg := gain.(x);
            bb := bk;
            bx := x;
            ties := 1
          end
          else if bk = !bb then incr ties
        end
      done;
      if !ties > 1 then begin
        (* same bucket: the fold meets the most recently inserted key
           first, i.e. the one the rebuild scan (members in table
           order, edges in incidence order) met last *)
        incr marks;
        let mk = !marks in
        for i = 0 to !nfront - 1 do
          let x = front.(i) in
          if member.(x) <> it && gain.(x) = !bg && hash.(x) land mask = !bb
          then mark.(x) <- mk
        done;
        Hashtbl.iter
          (fun w () ->
            for p = offsets.(w) to offsets.(w + 1) - 1 do
              let y = nbrs.(p) in
              if mark.(y) = mk then begin
                mark.(y) <- 0;
                bx := y
              end
            done)
          members
      end;
      (!bx, !bg)
    in
    let best = ref 0 and best_set = ref [] in
    let consider members inside capsum =
      let t = gamma_of ~edges_inside:inside ~cap_sum:capsum in
      if t > !best && t < max_int then begin
        best := t;
        best_set := Hashtbl.fold (fun v () acc -> v :: acc) members []
      end
    in
    for it = 1 to iters do
      let e = Random.State.int rng m in
      let u, v = Multigraph.endpoints g e in
      if not (skip u) then begin
        let members = Hashtbl.create 16 in
        nfront := 0;
        live := 0;
        join members it u;
        if u <> v then join members it v;
        let inside = ref (Multigraph.multiplicity g u v) in
        let capsum =
          ref (Instance.cap inst u + if u <> v then Instance.cap inst v else 0)
        in
        consider members !inside !capsum;
        let steps = min n 40 and step = ref 0 in
        while !step < steps && !live > 0 do
          let x, gx = pick members it in
          join members it x;
          inside := !inside + gx;
          capsum := !capsum + Instance.cap inst x;
          consider members !inside !capsum;
          incr step
        done
      end
    done;
    List.iter (Arena.release arena)
      [ hmember; htouched; hgain; hfront; hmark; hhash ];
    (!best, !best_set)
  end

let local_search inst rng iters = search ~skip:(fun _ -> false) inst rng iters

let lb2_witness ?rng ?(exact_limit = 14) ?(search_iters = 32) inst =
  if exact_limit > 24 then
    invalid_arg
      "Lower_bounds.lb2_witness: exact_limit must be <= 24 (the subset DP \
       tables have 2^exact_limit entries)";
  let g = Instance.graph inst in
  let n = Multigraph.n_nodes g in
  let all_nodes = List.init n Fun.id in
  let whole =
    let t =
      gamma_of
        ~edges_inside:(Multigraph.n_edges g)
        ~cap_sum:(Array.fold_left ( + ) 0 (Instance.caps inst))
    in
    if t = max_int then (0, []) else (t, all_nodes)
  in
  let comp, k = Mgraph.Traversal.components g in
  (* each component's nodes in ascending order, and every node's index
     among them *)
  let members = Array.make k [] and size = Array.make k 0 in
  let local = Array.make n 0 in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  for v = 0 to n - 1 do
    local.(v) <- size.(comp.(v));
    size.(comp.(v)) <- size.(comp.(v)) + 1
  done;
  let exact c = size.(c) >= 2 && size.(c) <= exact_limit in
  (* one pass over the edges: every component's inside-edge count, and
     the multiplicity matrix of each one small enough for the DP *)
  let inside = Array.make k 0 in
  let mult =
    Array.init k (fun c ->
        if exact c then Array.make (size.(c) * size.(c)) 0 else [||])
  in
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      let c = comp.(u) in
      inside.(c) <- inside.(c) + 1;
      if exact c then begin
        let mc = mult.(c) and s = size.(c) in
        let i = local.(u) and j = local.(v) in
        mc.((i * s) + j) <- mc.((i * s) + j) + 1;
        if i <> j then mc.((j * s) + i) <- mc.((j * s) + i) + 1
      end);
  let comp_best = ref (0, []) in
  for c = 0 to k - 1 do
    let t =
      if exact c then exact_on_nodes inst (Array.of_list members.(c)) mult.(c)
      else begin
        let cap_sum =
          List.fold_left (fun acc v -> acc + Instance.cap inst v) 0 members.(c)
        in
        let t = gamma_of ~edges_inside:inside.(c) ~cap_sum in
        if t = max_int then (0, []) else (t, members.(c))
      end
    in
    if fst t > fst !comp_best then comp_best := t
  done;
  (* A seed in an exactly solved component cannot beat [comp_best]:
     the search never leaves the seed's component, and the DP already
     took the max over that component's subsets.  Such seeds are still
     drawn, so the caller's RNG ends in the same state; when every
     seed would be skipped, nothing is built at all. *)
  let searched =
    match rng with
    | Some rng when n > exact_limit ->
        let m = Multigraph.n_edges g in
        let large = ref false in
        for c = 0 to k - 1 do
          if size.(c) >= 2 && not (exact c) then large := true
        done;
        if !large then
          search ~skip:(fun u -> exact comp.(u)) inst rng search_iters
        else begin
          if m > 0 then
            for _ = 1 to search_iters do
              ignore (Random.State.int rng m)
            done;
          (0, [])
        end
    | _ -> (0, [])
  in
  List.fold_left
    (fun acc cand -> if fst cand > fst acc then cand else acc)
    whole
    [ !comp_best; searched ]

let lb2 ?rng ?exact_limit ?search_iters inst =
  fst (lb2_witness ?rng ?exact_limit ?search_iters inst)

let lower_bound ?rng ?exact_limit ?search_iters inst =
  max (lb1 inst) (lb2 ?rng ?exact_limit ?search_iters inst)

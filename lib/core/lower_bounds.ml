module Multigraph = Mgraph.Multigraph
module Arena = Mgraph.Arena

let t_search = Probes.timer "lower_bounds.search"
let c_search_steps = Probes.counter "lower_bounds.search_steps"
let c_search_skipped = Probes.counter "lower_bounds.search_skipped"

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

(* Bucket count of a [Hashtbl.create 16] holding [size] keys: 16,
   doubled while [size] exceeds twice the count. *)
let table_buckets size =
  let b = ref 16 in
  while size > 2 * !b do
    b := 2 * !b
  done;
  !b

(* Randomized greedy densest-subset growth: from a random seed edge,
   repeatedly add the frontier node with the most edges into the
   current set, keeping the best Γ-term seen.

   Gains live in dense arrays over the CSR and are kept up to date as
   nodes join ([join]).  The frontier holds only live (touched,
   non-member) nodes, so a pick costs O(live).  The pick must be the
   one a gain table rebuilt each step would make when folded (see the
   mli's ordering contract): the least (-gain, bucket), and on a tie
   the candidate with the greatest rank key, which only the tied
   candidates' rows are read to compute.

   An iteration stops once no larger subset can beat [max best floor]:
   its subsets stay inside the seed's component, which has
   [comp_edges u] edges, and every join adds at least 1 to the
   capacity sum.  An iteration whose ordered seed pair already ran
   would replay that run, so it is skipped, as is one with [skip u];
   both are still drawn, so the draws on [rng] depend on neither. *)
let search ~skip ~comp_edges ~floor inst rng iters =
  let g = Instance.graph inst in
  let n = Multigraph.n_nodes g and m = Multigraph.n_edges g in
  if m = 0 then (0, [])
  else
    Probes.time t_search @@ fun () ->
    let csr = Multigraph.freeze g in
    let offsets = csr.Multigraph.Csr.offsets
    and nbrs = csr.Multigraph.Csr.neighbors
    and eids = csr.Multigraph.Csr.edge_ids in
    let max_members = min n 40 + 2 in
    let arena = Arena.local () in
    (* [state.(v)] is [2 it] while [v] is live in iteration [it] and
       [2 it + 1] once it is a member (lower: untouched); [slot.(v)]
       is a live node's index in [front] and a member's join index;
       [gain.(v)] counts a live node's edges into the subset;
       [joined] lists the members in join order, [best_joined] those
       of the best subset so far *)
    let hstate = Arena.ints arena ~len:n ~fill:0
    and hslot = Arena.ints arena ~len:n ~fill:0
    and hgain = Arena.ints arena ~len:n ~fill:0
    and hfront = Arena.ints arena ~len:n ~fill:0
    and htied = Arena.ints arena ~len:n ~fill:0
    and hhash = Arena.ints arena ~len:n ~fill:0
    and hjoined = Arena.ints arena ~len:max_members ~fill:0
    and hbest = Arena.ints arena ~len:max_members ~fill:0 in
    let state = Arena.arr hstate and slot = Arena.arr hslot in
    let gain = Arena.arr hgain and front = Arena.arr hfront in
    let tied = Arena.arr htied and hash = Arena.arr hhash in
    let joined = Arena.arr hjoined and best_joined = Arena.arr hbest in
    for v = 0 to n - 1 do
      hash.(v) <- Hashtbl.hash v
    done;
    let live = ref 0 and members = ref 0 in
    let join it x =
      if state.(x) = 2 * it then begin
        let i = slot.(x) and last = front.(!live - 1) in
        front.(i) <- last;
        slot.(last) <- i;
        decr live
      end;
      state.(x) <- (2 * it) + 1;
      slot.(x) <- !members;
      joined.(!members) <- x;
      incr members;
      for p = offsets.(x) to offsets.(x + 1) - 1 do
        let y = nbrs.(p) in
        if state.(y) < 2 * it then begin
          state.(y) <- 2 * it;
          gain.(y) <- 1;
          slot.(y) <- !live;
          front.(!live) <- y;
          incr live
        end
        else if state.(y) = 2 * it then gain.(y) <- gain.(y) + 1
      done
    in
    let picked_gain = ref 0 in
    let pick it =
      let mask = table_buckets !live - 1 in
      let bg = ref 0 and bb = ref 0 and ties = ref 0 in
      for i = 0 to !live - 1 do
        let x = front.(i) in
        let gx = gain.(x) in
        if gx >= !bg then begin
          let bk = hash.(x) land mask in
          if gx > !bg || bk < !bb then begin
            bg := gx;
            bb := bk;
            tied.(0) <- x;
            ties := 1
          end
          else if bk = !bb then begin
            tied.(!ties) <- x;
            incr ties
          end
        end
      done;
      picked_gain := !bg;
      if !ties = 1 then tied.(0)
      else begin
        (* a candidate's rank key is where the rebuild scan first met
           it: the least (member bucket, newest join first, edge id)
           over its edges to members, the first two packed into one
           int.  The gain table's fold meets the candidate with the
           greatest key first. *)
        let k = !members in
        let mmask = table_buckets k - 1 in
        let bx = ref (-1) and br = ref (-1) and be = ref (-1) in
        for i = 0 to !ties - 1 do
          let y = tied.(i) in
          let r = ref max_int and e = ref max_int in
          for p = offsets.(y) to offsets.(y + 1) - 1 do
            let w = nbrs.(p) in
            if state.(w) = (2 * it) + 1 then begin
              let rw = ((hash.(w) land mmask) * k) + (k - 1 - slot.(w)) in
              if rw < !r || (rw = !r && eids.(p) < !e) then begin
                r := rw;
                e := eids.(p)
              end
            end
          done;
          if !r > !br || (!r = !br && !e > !be) then begin
            br := !r;
            be := !e;
            bx := y
          end
        done;
        !bx
      end
    in
    let best = ref 0 and best_members = ref 0 in
    let consider inside capsum =
      let t = gamma_of ~edges_inside:inside ~cap_sum:capsum in
      if t > !best && t < max_int then begin
        best := t;
        Array.blit joined 0 best_joined 0 !members;
        best_members := !members
      end
    in
    let seeds = Hashtbl.create 64 in
    let steps = min n 40 and total_steps = ref 0 and skipped = ref 0 in
    for it = 1 to iters do
      let e = Random.State.int rng m in
      let u, v = Multigraph.endpoints g e in
      if skip u || Hashtbl.mem seeds ((u * n) + v) then incr skipped
      else begin
        Hashtbl.add seeds ((u * n) + v) ();
        live := 0;
        members := 0;
        join it u;
        if u <> v then join it v;
        let inside = ref (Multigraph.multiplicity g u v) in
        let capsum =
          ref (Instance.cap inst u + if u <> v then Instance.cap inst v else 0)
        in
        consider !inside !capsum;
        let limit = comp_edges u and step = ref 0 in
        while
          !step < steps && !live > 0
          && gamma_of ~edges_inside:limit ~cap_sum:(!capsum + 1)
             > max !best floor
        do
          let x = pick it in
          join it x;
          inside := !inside + !picked_gain;
          capsum := !capsum + Instance.cap inst x;
          consider !inside !capsum;
          incr step
        done;
        total_steps := !total_steps + !step
      end
    done;
    (* the member table's fold order (bucket ascending, newest first
       within a bucket), consed: the witness lists it reversed *)
    let k = !best_members in
    let mask = table_buckets k - 1 in
    let witness = ref [] in
    for b = 0 to mask do
      for i = k - 1 downto 0 do
        let w = best_joined.(i) in
        if hash.(w) land mask = b then witness := w :: !witness
      done
    done;
    List.iter (Arena.release arena)
      [ hstate; hslot; hgain; hfront; htied; hhash; hjoined; hbest ];
    Probes.bump ~by:!total_steps c_search_steps;
    Probes.bump ~by:!skipped c_search_skipped;
    (!best, !witness)

let local_search inst rng iters =
  let m = Multigraph.n_edges (Instance.graph inst) in
  search ~skip:(fun _ -> false) ~comp_edges:(fun _ -> m) ~floor:0 inst rng
    iters

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
          search
            ~skip:(fun u -> exact comp.(u))
            ~comp_edges:(fun u -> inside.(comp.(u)))
            ~floor:(max (fst whole) (fst !comp_best))
            inst rng search_iters
        else begin
          if m > 0 then begin
            for _ = 1 to search_iters do
              ignore (Random.State.int rng m)
            done;
            Probes.bump ~by:search_iters c_search_skipped
          end;
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

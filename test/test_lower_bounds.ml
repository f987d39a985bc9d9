(* Differential tests for the Γ search of Lower_bounds.

   [Reference.local_search] is the original search, which rebuilt a
   gain Hashtbl from every member's edges at each step.  The library's
   incremental search must reproduce it exactly — value, witness list
   order, and the draws it leaves on the RNG — because the golden
   hetero schedules pin all three through [lower_bound ~rng].

   [Reference.lb2_witness] is the bound as it was before its exact part
   was made O(2^k) and before its search stopped running seeds that
   land in exactly solved components, repeat a seed pair, or can no
   longer beat the component terms: the O(2^k k) subset DP, and every
   seed grown in full by [Reference.local_search]. *)

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

  (* E(mask) = E(mask minus its lowest member i) + the edges from i
     into the rest: O(k) per subset *)
  let exact_on_nodes inst nodes mult =
    let k = Array.length nodes in
    let size = 1 lsl k in
    let inside = Array.make size 0 in
    let capsum = Array.make size 0 in
    let best = ref 0 and best_mask = ref 0 in
    for mask = 1 to size - 1 do
      let i =
        let rec find b = if mask land (1 lsl b) <> 0 then b else find (b + 1) in
        find 0
      in
      let rest = mask land lnot (1 lsl i) in
      let added = ref 0 in
      for j = 0 to k - 1 do
        if rest land (1 lsl j) <> 0 then added := !added + mult.((i * k) + j)
      done;
      inside.(mask) <- inside.(rest) + !added;
      capsum.(mask) <- capsum.(rest) + M.Instance.cap inst nodes.(i);
      if inside.(mask) > 0 then begin
        let t =
          gamma_of ~edges_inside:inside.(mask) ~cap_sum:capsum.(mask)
        in
        if t > !best && t < max_int then begin
          best := t;
          best_mask := mask
        end
      end
    done;
    let witness = ref [] in
    for j = k - 1 downto 0 do
      if !best_mask land (1 lsl j) <> 0 then witness := nodes.(j) :: !witness
    done;
    (!best, !witness)

  (* whole graph, then every component (exactly when small), then the
     reference search over the whole instance, every seed run *)
  let lb2_witness ?rng ?(exact_limit = 14) ?(search_iters = 32) inst =
    let g = M.Instance.graph inst in
    let n = Multigraph.n_nodes g in
    let cap_sum nodes =
      List.fold_left (fun acc v -> acc + M.Instance.cap inst v) 0 nodes
    in
    let term ~inside nodes =
      let t = gamma_of ~edges_inside:inside ~cap_sum:(cap_sum nodes) in
      if t = max_int then (0, []) else (t, nodes)
    in
    let whole = term ~inside:(Multigraph.n_edges g) (List.init n Fun.id) in
    let comp_best = ref (0, []) in
    Array.iter
      (fun members ->
        let k = List.length members in
        let t =
          if k >= 2 && k <= exact_limit then begin
            let nodes = Array.of_list members in
            let index v =
              let rec go i = if nodes.(i) = v then i else go (i + 1) in
              go 0
            in
            let mult = Array.make (k * k) 0 in
            Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
                if List.mem u members then begin
                  let i = index u and j = index v in
                  mult.((i * k) + j) <- mult.((i * k) + j) + 1;
                  if i <> j then mult.((j * k) + i) <- mult.((j * k) + i) + 1
                end);
            exact_on_nodes inst nodes mult
          end
          else
            term
              ~inside:
                (Multigraph.fold_edges
                   (fun { Multigraph.u; _ } acc ->
                     if List.mem u members then acc + 1 else acc)
                   g 0)
              members
        in
        if fst t > fst !comp_best then comp_best := t)
      (Mgraph.Traversal.component_members g);
    let searched =
      match rng with
      | Some rng when n > exact_limit ->
          local_search inst rng search_iters
      | _ -> (0, [])
    in
    List.fold_left
      (fun acc cand -> if fst cand > fst acc then cand else acc)
      whole [ !comp_best; searched ]
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

(* Random multigraphs of 2..14 nodes with parallel edges and plenty of
   cap-1 disks; not necessarily connected. *)
let small_multigraph rng =
  let n = 2 + Random.State.int rng 13 in
  let g = Multigraph.create ~n () in
  for _ = 1 to 1 + Random.State.int rng (3 * n) do
    let u = Random.State.int rng n in
    let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
    for _ = 1 to 1 + (Random.State.int rng 4 / 3) do
      ignore (Multigraph.add_edge g u v)
    done
  done;
  M.Instance.random_caps rng g ~choices:[ 1; 1; 2; 3; 5 ]

let lb2_disagreement ?exact_limit ?rng_seed name inst =
  let rng = Option.map rng_of_int rng_seed in
  let ref_rng = Option.map rng_of_int rng_seed in
  let got = M.Lower_bounds.lb2_witness ?rng ?exact_limit inst in
  let want = Reference.lb2_witness ?rng:ref_rng ?exact_limit inst in
  let next r = Option.map Random.State.bits r in
  if got = want && next rng = next ref_rng then None
  else
    Some
      (Printf.sprintf "%s: got %s, want %s" name (show got) (show want))

(* The O(2^k) DP against the O(2^k k) one, value and witness, on
   instances small enough that every component is solved exactly. *)
let test_exact_dp () =
  let failures =
    List.filter_map
      (fun i ->
        let rng = rng_of_int (13_000 + i) in
        let inst = small_multigraph rng in
        let exact_limit = if i mod 4 = 0 then Some (2 + (i mod 13)) else None in
        lb2_disagreement ?exact_limit (Printf.sprintf "case %d" i) inst)
      (List.init 600 Fun.id)
  in
  Alcotest.(check (list string)) "exact DP" [] failures

(* Unions of components at or below [exact_limit] nodes with larger
   ones (or with none: then the search only draws its seeds), searched
   with an RNG.  The library skips the seeds that land in the small
   components; the reference runs them all. *)
let test_skipped_seeds () =
  let fams = Array.of_list Gen.all in
  let failures =
    List.filter_map
      (fun i ->
        let rng = rng_of_int (17_000 + i) in
        let exact_limit = [| 4; 8; 14 |].(i mod 3) in
        let small () =
          let rec draw () =
            let inst = small_multigraph rng in
            if M.Instance.n_disks inst <= exact_limit then inst else draw ()
          in
          draw ()
        in
        let large j =
          let fam = fams.(Random.State.int rng (Array.length fams)) in
          Gen.instance fam ~seed:((37 * i) + j) ~size:(exact_limit + 2 + j)
        in
        let n_large = if i mod 5 = 0 then 0 else 1 + Random.State.int rng 2 in
        let parts =
          List.init (1 + Random.State.int rng 4) (fun _ -> small ())
          @ List.init n_large large
        in
        let parts =
          (* pad the all-small unions past [exact_limit] nodes, so that
             the search is asked for *)
          if n_large = 0 then parts @ List.init 4 (fun _ -> small ())
          else parts
        in
        let inst = union parts in
        lb2_disagreement ~exact_limit ~rng_seed:i
          (Printf.sprintf "case %d (limit %d)" i exact_limit)
          inst)
      (List.init 300 Fun.id)
  in
  Alcotest.(check (list string)) "skipped seeds" [] failures

let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* The pools of a plan-mixed-shaped instance: 3-5 of 24-48 nodes with
   caps {1,2,3,5}; pool 0 is power-law, with hubs and stacks of
   parallel edges, the rest G(n,m). *)
let mixed_pools rng =
  List.init (range rng 3 5) (fun p ->
      let n = range rng 24 48 in
      let g =
        if p = 0 then Mgraph.Graph_gen.power_law rng ~n ~m:(n * range rng 5 8)
        else Mgraph.Graph_gen.gnm rng ~n ~m:(n * range rng 4 8)
      in
      M.Instance.random_caps rng g ~choices:[ 1; 2; 3; 5 ])

(* [k] parallel edges between two cap-1 disks: a component whose exact
   term is [k] *)
let stack k =
  let g = Multigraph.create ~n:2 () in
  for _ = 1 to k do
    ignore (Multigraph.add_edge g 0 1)
  done;
  M.Instance.uniform g ~cap:1

let check_lb2 name cases =
  let failures =
    List.filter_map
      (fun (seed, inst) ->
        lb2_disagreement ~rng_seed:seed (Printf.sprintf "%s %d" name seed) inst)
      cases
  in
  Alcotest.(check (list string)) name [] failures

(* The unions plan-mixed builds, and each of their pools alone (the
   component a pipeline solve hands to hetero). *)
let test_plan_mixed () =
  check_lb2 "plan-mixed"
    (List.concat
       (List.init 30 (fun i ->
            let pools = mixed_pools (rng_of_int (19_000 + i)) in
            (i, union pools)
            :: List.mapi (fun j pool -> ((100 * i) + j, pool)) pools)))

(* A small component whose exact term lands among the search's values:
   the search prunes against it, and sometimes still beats it. *)
let test_floor_prune () =
  check_lb2 "dominated search"
    (List.init 60 (fun i ->
         let rng = rng_of_int (21_000 + i) in
         let pools = mixed_pools rng in
         (i, union (stack (3 + Random.State.int rng 28) :: pools))))

(* Cap-1 G(n,m) pools of 40-48 nodes: the whole-pool term stays below
   what the pool's edges allow at 42 members, so growths run past 32
   members, where the member table has 32 buckets. *)
let test_wide_growth () =
  check_lb2 "growth past 32 members"
    (List.init 40 (fun i ->
         let rng = rng_of_int (23_000 + i) in
         let pool _ =
           let n = range rng 40 48 in
           M.Instance.uniform
             (Mgraph.Graph_gen.gnm rng ~n ~m:(n * range rng 4 8))
             ~cap:1
         in
         (i, union (List.init (range rng 1 3) pool))))

(* ------------------------------------------------------------------ *)
(* Hetero's edge order against the tuple sort it replaced *)

let tuple_sort_order inst =
  let g = M.Instance.graph inst in
  let weight e =
    let u, v = Multigraph.endpoints g e in
    M.Instance.degree_ratio inst u + M.Instance.degree_ratio inst v
  in
  let keyed = Array.init (Multigraph.n_edges g) (fun e -> (weight e, e)) in
  Array.sort
    (fun ((aw : int), (ae : int)) (bw, be) ->
      if bw <> aw then compare bw aw else compare ae be)
    keyed;
  Array.map snd keyed

(* [same] stacks every edge on the first pair drawn, so all weights are
   equal; [m] may be 0.  Instances reject self-loops, so none is
   drawn. *)
let edge_order_gen =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* m = int_range 0 40 in
    let* same = bool in
    let* pairs =
      list_size (return m)
        (let* u = int_bound (n - 1) in
         let* d = int_range 1 (n - 1) in
         return (u, (u + d) mod n))
    in
    let* caps = array_size (return n) (oneofl [ 1; 2; 3; 5 ]) in
    let pairs =
      if same then List.map (fun _ -> List.hd pairs) pairs else pairs
    in
    return (n, caps, pairs))

let prop_edge_order (n, caps, pairs) =
  let g = Multigraph.create ~n () in
  List.iter (fun (u, v) -> ignore (Multigraph.add_edge g u v)) pairs;
  let inst = M.Instance.create g ~caps in
  M.Hetero_coloring.edge_order inst = tuple_sort_order inst

let test_edge_order_cases () =
  let check name inst =
    Alcotest.(check (array int))
      name (tuple_sort_order inst)
      (M.Hetero_coloring.edge_order inst)
  in
  check "no edges" (M.Instance.uniform (Multigraph.create ~n:4 ()) ~cap:3);
  check "one pair, all weights equal" (stack 9);
  List.iter
    (fun (seed, inst) -> check (Printf.sprintf "family case %d" seed) inst)
    (List.filteri (fun i _ -> i mod 7 = 0) (family_cases ()))

(* ------------------------------------------------------------------ *)
(* Golden corpus: data/golden/lower_bounds.tsv pins [lb2_witness ~rng]
   on 200 plan-mixed-shaped instances (even rows a union, odd rows one
   of its pools alone): the value, an MD5 of the witness list and the
   RNG's next draw.  Regenerating the file (--write-lb-golden, below)
   redefines the reference behaviour. *)

let golden_instance i =
  let pools = Array.of_list (mixed_pools (rng_of_int (29_000 + (i / 2)))) in
  if i mod 2 = 0 then union (Array.to_list pools)
  else pools.(i / 2 mod Array.length pools)

let golden_row i =
  let rng = rng_of_int i in
  let value, witness = M.Lower_bounds.lb2_witness ~rng (golden_instance i) in
  Printf.sprintf "%d\t%d\t%s\t%d" i value
    (Digest.to_hex
       (Digest.string (String.concat ";" (List.map string_of_int witness))))
    (Random.State.bits rng)

let golden_header = "# index\tlb2\twitness_md5\tnext_bits\n"
let golden_rows = 200
let golden_search_work = (144242, 349)

let lb_golden_path =
  List.find_opt Sys.file_exists
    [
      "data/golden/lower_bounds.tsv";
      "../data/golden/lower_bounds.tsv";
      "../../data/golden/lower_bounds.tsv";
    ]

let test_golden () =
  let path =
    match lb_golden_path with
    | Some p -> p
    | None ->
        Alcotest.fail "golden corpus data/golden/lower_bounds.tsv not found"
  in
  let rows =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "row count" golden_rows (List.length rows);
  M.Instr.reset ();
  List.iteri
    (fun i row ->
      Alcotest.(check string) (Printf.sprintf "row %d" i) row (golden_row i))
    rows;
  (* The work the search did over the corpus: growth steps taken, and
     seed iterations drawn but not run.  These pin the prune and the
     seed skips, whose changes no value or witness shows as long as
     they stay exact; a deliberate change to either updates them. *)
  let count name = List.assoc name (M.Instr.snapshot ()).M.Instr.counters in
  Alcotest.(check (pair int int))
    "search steps, skipped seeds" golden_search_work
    (count "lower_bounds.search_steps", count "lower_bounds.search_skipped")

let test_exact_limit_range () =
  let inst = Gen.instance (List.hd Gen.all) ~seed:1 ~size:8 in
  Alcotest.check_raises "exact_limit 25"
    (Invalid_argument
       "Lower_bounds.lb2_witness: exact_limit must be <= 24 (the subset DP \
        tables have 2^exact_limit entries)")
    (fun () -> ignore (M.Lower_bounds.lb2_witness ~exact_limit:25 inst));
  Alcotest.(check bool)
    "exact_limit 24 accepted" true
    (fst (M.Lower_bounds.lb2_witness ~exact_limit:24 inst) >= 0)

let () =
  (* regenerate the corpus: test_lower_bounds.exe --write-lb-golden *)
  if Array.exists (( = ) "--write-lb-golden") Sys.argv then begin
    print_string golden_header;
    for i = 0 to golden_rows - 1 do
      print_endline (golden_row i)
    done;
    exit 0
  end

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
          Alcotest.test_case "O(2^k) DP matches the O(2^k k) one" `Quick
            test_exact_dp;
          Alcotest.test_case "skipped seeds change nothing" `Quick
            test_skipped_seeds;
          Alcotest.test_case "exact_limit above 24 rejected" `Quick
            test_exact_limit_range;
          Alcotest.test_case "matches on plan-mixed unions and pools" `Quick
            test_plan_mixed;
          Alcotest.test_case "matches where a component term prunes" `Quick
            test_floor_prune;
          Alcotest.test_case "matches on growths past 32 members" `Quick
            test_wide_growth;
          Alcotest.test_case "golden corpus replays" `Quick test_golden;
        ] );
      ( "edge_order",
        [
          qtest ~count:300 "equals the tuple sort" edge_order_gen
            prop_edge_order;
          Alcotest.test_case "no edges, equal weights, families" `Quick
            test_edge_order_cases;
        ] );
    ]

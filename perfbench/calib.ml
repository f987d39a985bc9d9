(* Host-speed calibration for the untraced run.

   On a shared VM the speed of the host drifts by 10-40% over minutes
   (co-tenants' cache and memory traffic): one pass over the same 256
   serve streams took 10.4 s in one process and 15.1 s in the next.
   The run therefore times a fixed reference kernel, which is written
   here and uses none of the repository's code, every [every_s] seconds
   between requests, and reports every time multiplied by
   [nominal_s / median kernel time]: seconds on a host where the kernel
   takes [nominal_s].  A change to the program moves these figures as
   much as it moves wall time; a change in the host's speed moves the
   kernel as well and cancels.

   The kernel does what the program does most: it allocates, hashes,
   chases pointers and sorts (a Hashtbl of 20,000 random keys, then a
   sorted list of as many).  Of the kernels tried, this one tracked the
   program best (same-seed pass time: quartile spread 0.30 raw, 0.03-0.04
   calibrated; an allocation-free array kernel left 0.07).  It runs
   under fixed GC parameters, so that a program that tunes the GC does
   not move the kernel with it. *)

let nominal_s = 0.009
(* about the kernel's time on the 2-vCPU VM the benchmark was tuned on,
   so that the reported figures stay close to that host's wall times *)

let every_s = 0.2

let pinned () =
  { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

let kernel () =
  let rng = Random.State.make [| 7 |] in
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (Random.State.int rng 1_000_000) i
  done;
  let l = List.init 20_000 (fun _ -> Random.State.int rng 1_000_000) in
  ignore (Sys.opaque_identity (h, List.sort compare l))

(* [kernel] under the pinned GC parameters. *)
let run_kernel () =
  let saved = Gc.get () and want = pinned () in
  let differ = saved <> want in
  if differ then Gc.set want;
  Fun.protect ~finally:(fun () -> if differ then Gc.set saved) kernel

let samples = ref []
let last = ref neg_infinity

(* Time the kernel once. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  run_kernel ();
  let t1 = Unix.gettimeofday () in
  samples := (t1 -. t0) :: !samples;
  last := t1

(* Time the kernel if [every_s] has passed since the last sample. *)
let tick () = if Unix.gettimeofday () -. !last >= every_s then sample ()

let warm_up () = run_kernel ()

let median_s () = Stats.median !samples

(* Multiply a wall time by this to get reference seconds. *)
let factor () =
  match !samples with [] -> 1.0 | _ -> nominal_s /. median_s ()

(* Order statistics for the benchmark's reports. *)

(* [quantile p xs]: linear interpolation between the closest ranks,
   position [p * (n - 1)] in the sorted sample (NumPy's default). *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile 0.5 xs

(* Integer-valued samples (round counts) kept as a histogram:
   [hist.(k)] is how many samples equal [k]. *)
type hist = { mutable counts : int array; mutable total : int }

let hist () = { counts = Array.make 64 0; total = 0 }

let add h k =
  if k >= Array.length h.counts then begin
    let c = Array.make (max (k + 1) (2 * Array.length h.counts)) 0 in
    Array.blit h.counts 0 c 0 (Array.length h.counts);
    h.counts <- c
  end;
  h.counts.(k) <- h.counts.(k) + 1;
  h.total <- h.total + 1

(* Grouped-data quantile: each integer value [k] stands for the
   interval [k - 0.5, k + 0.5) with its samples spread evenly over it,
   and the quantile is read off that piecewise-linear CDF.  A plain
   order statistic of round counts jumps by whole rounds between
   inputs that differ only slightly; this estimator moves smoothly
   with the distribution and is still exactly repeatable. *)
let hist_quantile p h =
  if h.total = 0 then 0.0
  else begin
    let target = p *. float_of_int h.total in
    let below = ref 0 and k = ref 0 in
    while
      !k < Array.length h.counts - 1
      && float_of_int (!below + h.counts.(!k)) < target
    do
      below := !below + h.counts.(!k);
      incr k
    done;
    let f = h.counts.(!k) in
    if f = 0 then float_of_int !k
    else
      float_of_int !k -. 0.5
      +. ((target -. float_of_int !below) /. float_of_int f)
  end

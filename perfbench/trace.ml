(* In-memory span recorder for the traced run.  Every span wraps one
   benchmark-side call into a public function of a layer; spans nest
   through an explicit stack (the benchmark calls the program from one
   domain only), carry the id of the request that caused them, and are
   written out once, at exit.  Disabled, [span] is a direct call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  request : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let request = ref (-1)

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      finished := { id; name; parent; request = !request; t0; t1 } :: !finished
    in
    match f () with
    | x ->
        close ();
        x
    | exception e ->
        close ();
        raise e
  end

let count () = List.length !finished

(* Per span name: (total seconds, self seconds, count), where self
   time is the span's duration minus the time its children cover. *)
let summary () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !finished;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let t, sf, c =
        Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (t +. d, sf +. self, c + 1))
    !finished;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !finished

(* [profile] is a JSON object recorded alongside the spans. *)
let write ~profile path =
  let oc = open_out path in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !finished
  in
  Printf.fprintf oc "{\"profile\": %s,\n\"summary\": {" profile;
  List.iteri
    (fun i (name, (t, self, c)) ->
      Printf.fprintf oc "%s\n  %S: {\"total_s\": %.9f, \"self_s\": %.9f, \"count\": %d}"
        (if i = 0 then "" else ",")
        name t self c)
    (summary ());
  output_string oc "},\n\"spans\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"name\": %S, \"parent\": %d, \"request\": %d, \
         \"start_s\": %.9f, \"end_s\": %.9f}"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.request (s.t0 -. base) (s.t1 -. base))
    (List.rev !finished);
  output_string oc "\n]}\n";
  close_out oc

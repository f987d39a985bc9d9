type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

(* the backing array is allocated by the first [push]: a graph with
   many nodes and few edges keeps most of its adjacency vectors empty *)
let create ~dummy () = { data = [||]; len = 0; dummy }

let make ~dummy n x =
  if n < 0 then invalid_arg "Vec.make";
  { data = Array.make (max 8 n) x; len = n; dummy }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v =
  if v.len = 0 then v.data <- Array.make 8 v.dummy
  else begin
    let data = Array.make (2 * Array.length v.data) v.dummy in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let peek v =
  if v.len = 0 then invalid_arg "Vec.peek: empty";
  v.data.(v.len - 1)

let is_empty v = v.len = 0

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let of_list ~dummy xs =
  let v = create ~dummy () in
  List.iter (fun x -> ignore (push v x)) xs;
  v

let to_array v = Array.sub v.data 0 v.len
let unsafe_data v = v.data

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }

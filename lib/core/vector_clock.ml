type t = int array

let create n = Array.make n 0
let size = Array.length
let get (c : t) i = Array.unsafe_get c i
let set (c : t) i v = Array.unsafe_set c i v
let[@inline] inc (c : t) i = c.(i) <- c.(i) + 1

let join ~into src =
  assert (Array.length into = Array.length src);
  for i = 0 to Array.length into - 1 do
    let v = Array.unsafe_get src i in
    if v > Array.unsafe_get into i then Array.unsafe_set into i v
  done

let join_count ~into src =
  assert (Array.length into = Array.length src);
  let changed = ref 0 in
  for i = 0 to Array.length into - 1 do
    let v = Array.unsafe_get src i in
    if v > Array.unsafe_get into i then begin
      Array.unsafe_set into i v;
      incr changed
    end
  done;
  !changed

let copy_into ~into src = Array.blit src 0 into 0 (Array.length src)
let blit_into (c : t) dst = Array.blit c 0 dst 0 (Array.length c)
let copy = Array.copy

let leq c1 c2 =
  assert (Array.length c1 = Array.length c2);
  let n = Array.length c1 in
  let rec loop i = i >= n || (Array.unsafe_get c1 i <= Array.unsafe_get c2 i && loop (i + 1)) in
  loop 0

let reset c = Array.fill c 0 (Array.length c) 0
let to_array = Array.copy
let of_array = Array.copy

let hash (c : t) = Array.fold_left (fun h v -> (h * 31) + v) (Array.length c) c land max_int

let encode enc (c : t) = Snap.Enc.int_array enc c

let decode dec ~size:n : t =
  let a = Snap.Dec.int_array_n dec n in
  Array.iteri
    (fun i v -> Snap.expect (v >= 0) (Printf.sprintf "negative clock entry %d at %d" v i))
    a;
  a

let pp fmt c =
  Format.fprintf fmt "⟨";
  Array.iteri (fun i v -> if i > 0 then Format.fprintf fmt ",%d" v else Format.fprintf fmt "%d" v) c;
  Format.fprintf fmt "⟩"

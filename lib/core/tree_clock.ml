(* Array-based tree clocks.  Node [t] is thread [t]'s entry; a node is
   attached iff it is the root or has a parent.  Children are kept in
   decreasing attachment-clock ([aclk]) order: new subtrees attach at the
   head, carrying the parent's current clock, which is maximal. *)

type t = {
  clk : int array;
  aclk : int array;
  parent : int array;  (* -1 = root or absent *)
  head : int array;    (* first child, -1 *)
  next : int array;    (* next sibling, -1 *)
  prev : int array;    (* previous sibling, -1 *)
  mutable root : int;
}

let create n ~owner =
  assert (n > 0 && owner >= 0 && owner < n);
  {
    clk = Array.make n 0;
    aclk = Array.make n 0;
    parent = Array.make n (-1);
    head = Array.make n (-1);
    next = Array.make n (-1);
    prev = Array.make n (-1);
    root = owner;
  }

let size tc = Array.length tc.clk
let root tc = tc.root
let get tc tid = Array.unsafe_get tc.clk tid

let inc tc k =
  assert (k > 0);
  tc.clk.(tc.root) <- tc.clk.(tc.root) + k

let detach tc v =
  let p = tc.parent.(v) in
  if p >= 0 then begin
    let nx = tc.next.(v) and pv = tc.prev.(v) in
    if pv >= 0 then tc.next.(pv) <- nx else tc.head.(p) <- nx;
    if nx >= 0 then tc.prev.(nx) <- pv;
    tc.parent.(v) <- -1;
    tc.next.(v) <- -1;
    tc.prev.(v) <- -1
  end

let attach_front tc ~parent:p ~aclk:a v =
  let h = tc.head.(p) in
  tc.next.(v) <- h;
  tc.prev.(v) <- -1;
  if h >= 0 then tc.prev.(h) <- v;
  tc.head.(p) <- v;
  tc.parent.(v) <- p;
  tc.aclk.(v) <- a

(* Collect the nodes of [src] whose values [into] lacks, using the pruned
   child scan of the tree-clock paper (Algorithms 2 and 3): children are
   examined in decreasing aclk; a non-updated child whose subtree was
   attached no later than [into]'s knowledge of the current node ends the
   scan — everything further is older news with identical structure.
   Returns the updated nodes parents-first (reverse post-order). *)
let collect ~is_copy ~into src =
  let acc = ref [] in
  let rec visit u =
    let rec scan c =
      if c >= 0 then begin
        let updated =
          src.clk.(c) > into.clk.(c) || (is_copy && c = into.root && c <> src.root)
        in
        if updated then begin
          visit c;
          scan src.next.(c)
        end
        else if src.aclk.(c) > into.clk.(u) then scan src.next.(c)
      end
    in
    scan src.head.(u);
    acc := u :: !acc
  in
  visit src.root;
  !acc

let apply_join ~count ~into src =
  let changed = ref 0 in
  if src != into && src.clk.(src.root) > into.clk.(src.root) then begin
    let updated = collect ~is_copy:false ~into src in
    List.iter
      (fun v ->
        assert (v <> into.root);
        detach into v;
        if count && into.clk.(v) <> src.clk.(v) then incr changed;
        into.clk.(v) <- src.clk.(v);
        if v = src.root then
          attach_front into ~parent:into.root ~aclk:into.clk.(into.root) v
        else attach_front into ~parent:src.parent.(v) ~aclk:src.aclk.(v) v)
      updated
  end;
  !changed

let join ~into src = ignore (apply_join ~count:false ~into src)

(* A join with a timestamp that knows only entry [v]: the node moves under
   the root, attached at the root's current clock like any joined subtree.
   Its own children keep their attachment clocks, which stay below its
   raised value. *)
let raise_entry tc v w =
  if w > tc.clk.(v) then
    if v = tc.root then tc.clk.(v) <- w
    else begin
      detach tc v;
      tc.clk.(v) <- w;
      attach_front tc ~parent:tc.root ~aclk:tc.clk.(tc.root) v
    end
let join_count ~into src = apply_join ~count:true ~into src

let monotone_copy ~into src =
  if src != into then begin
    if into.root = src.root && into.clk.(src.root) = src.clk.(src.root) then
      (* same root and counter: with [into ⊑ src] the clocks are equal *)
      ()
    else begin
      let updated = collect ~is_copy:true ~into src in
      List.iter
        (fun v ->
          detach into v;
          into.clk.(v) <- src.clk.(v);
          if v = src.root then begin
            (* becomes the new root *)
            into.aclk.(v) <- 0
          end
          else attach_front into ~parent:src.parent.(v) ~aclk:src.aclk.(v) v)
        updated;
      into.root <- src.root
    end
  end

let force_copy ~into src =
  if src != into then begin
    Array.blit src.clk 0 into.clk 0 (size src);
    Array.blit src.aclk 0 into.aclk 0 (size src);
    Array.blit src.parent 0 into.parent 0 (size src);
    Array.blit src.head 0 into.head 0 (size src);
    Array.blit src.next 0 into.next 0 (size src);
    Array.blit src.prev 0 into.prev 0 (size src);
    into.root <- src.root
  end

let leq tc1 tc2 =
  let n = size tc1 in
  let rec loop i = i >= n || (tc1.clk.(i) <= tc2.clk.(i) && loop (i + 1)) in
  loop 0

let to_vc tc =
  let v = Vector_clock.create (size tc) in
  Array.iteri (fun i c -> Vector_clock.set v i c) tc.clk;
  v

let check_invariants tc =
  let n = size tc in
  let ok = ref true in
  let seen = Array.make n false in
  let rec dfs u =
    if seen.(u) then ok := false
    else begin
      seen.(u) <- true;
      (* children: consistent links, decreasing aclk, aclk ≤ parent clk *)
      let rec walk c prev_c prev_aclk =
        if c >= 0 then begin
          if tc.parent.(c) <> u then ok := false;
          if tc.prev.(c) <> prev_c then ok := false;
          if tc.aclk.(c) > tc.clk.(u) then ok := false;
          (match prev_aclk with Some a -> if tc.aclk.(c) > a then ok := false | None -> ());
          dfs c;
          walk tc.next.(c) c (Some tc.aclk.(c))
        end
      in
      walk tc.head.(u) (-1) None
    end
  in
  if tc.parent.(tc.root) <> -1 then ok := false;
  dfs tc.root;
  (* every attached node must be reachable from the root *)
  for v = 0 to n - 1 do
    if (tc.parent.(v) >= 0 || v = tc.root) && not seen.(v) then ok := false;
    if tc.parent.(v) < 0 && v <> tc.root && tc.clk.(v) > 0 then ok := false
  done;
  !ok

let encode enc tc =
  Snap.Enc.int_array enc tc.clk;
  Snap.Enc.int_array enc tc.aclk;
  Snap.Enc.int_array enc tc.parent;
  Snap.Enc.int_array enc tc.head;
  Snap.Enc.int_array enc tc.next;
  Snap.Enc.int_array enc tc.prev;
  Snap.Enc.int enc tc.root

let decode dec ~size:n =
  let clk = Snap.Dec.int_array_n dec n in
  let aclk = Snap.Dec.int_array_n dec n in
  let parent = Snap.Dec.int_array_n dec n in
  let head = Snap.Dec.int_array_n dec n in
  let next = Snap.Dec.int_array_n dec n in
  let prev = Snap.Dec.int_array_n dec n in
  let root = Snap.Dec.int dec in
  Snap.expect (root >= 0 && root < n) "tree-clock root out of range";
  let node_ref v = v >= -1 && v < n in
  for i = 0 to n - 1 do
    Snap.expect (clk.(i) >= 0 && aclk.(i) >= 0) "negative tree-clock entry";
    Snap.expect (node_ref parent.(i) && node_ref head.(i) && node_ref next.(i) && node_ref prev.(i))
      "tree-clock link out of range"
  done;
  let tc = { clk; aclk; parent; head; next; prev; root } in
  Snap.expect (check_invariants tc) "tree-clock structure invalid";
  tc

let pp fmt tc =
  let rec node fmt u =
    Format.fprintf fmt "t%d:%d" u tc.clk.(u);
    if tc.head.(u) >= 0 then begin
      Format.fprintf fmt "(";
      let rec kids c first =
        if c >= 0 then begin
          if not first then Format.fprintf fmt " ";
          Format.fprintf fmt "%a@@%d" node c tc.aclk.(c);
          kids tc.next.(c) false
        end
      in
      kids tc.head.(u) true;
      Format.fprintf fmt ")"
    end
  in
  node fmt tc.root

(* Tests for the clock data structures: vector clocks, epochs, and the
   ordered list of §5 — including a qcheck model-based test that checks the
   move-to-front order against a reference implementation. *)

module Vc = Ft_core.Vector_clock
module Epoch = Ft_core.Epoch
module Ol = Ft_core.Ordered_list

let test_vc_create () =
  let c = Vc.create 4 in
  Alcotest.(check int) "size" 4 (Vc.size c);
  for i = 0 to 3 do
    Alcotest.(check int) "bottom" 0 (Vc.get c i)
  done

let test_vc_set_get_inc () =
  let c = Vc.create 3 in
  Vc.set c 1 7;
  Vc.inc c 1;
  Alcotest.(check int) "set+inc" 8 (Vc.get c 1);
  Alcotest.(check int) "others untouched" 0 (Vc.get c 0)

let test_vc_join () =
  let a = Vc.of_array [| 1; 5; 3 |] and b = Vc.of_array [| 2; 4; 3 |] in
  Vc.join ~into:a b;
  Alcotest.(check (array int)) "pointwise max" [| 2; 5; 3 |] (Vc.to_array a)

let test_vc_join_count () =
  let a = Vc.of_array [| 1; 5; 3 |] and b = Vc.of_array [| 2; 4; 9 |] in
  let changed = Vc.join_count ~into:a b in
  Alcotest.(check int) "two entries changed" 2 changed;
  Alcotest.(check (array int)) "result" [| 2; 5; 9 |] (Vc.to_array a);
  Alcotest.(check int) "idempotent" 0 (Vc.join_count ~into:a b)

let test_vc_leq () =
  Alcotest.(check bool) "leq" true (Vc.leq (Vc.of_array [| 1; 2 |]) (Vc.of_array [| 1; 3 |]));
  Alcotest.(check bool) "not leq" false
    (Vc.leq (Vc.of_array [| 2; 2 |]) (Vc.of_array [| 1; 3 |]));
  Alcotest.(check bool) "reflexive" true
    (Vc.leq (Vc.of_array [| 4; 4 |]) (Vc.of_array [| 4; 4 |]))

let test_vc_copy_independent () =
  let a = Vc.of_array [| 1; 2 |] in
  let b = Vc.copy a in
  Vc.set b 0 99;
  Alcotest.(check int) "original untouched" 1 (Vc.get a 0)

let test_epoch_pack () =
  let e = Epoch.make ~time:12345 ~tid:7 in
  Alcotest.(check int) "time" 12345 (Epoch.time e);
  Alcotest.(check int) "tid" 7 (Epoch.tid e);
  Alcotest.(check bool) "none is 0@0" true
    (Epoch.time Epoch.none = 0 && Epoch.tid Epoch.none = 0)

let test_epoch_leq_vc () =
  let v = Vc.of_array [| 3; 8 |] in
  Alcotest.(check bool) "≤" true (Epoch.leq_vc (Epoch.make ~time:8 ~tid:1) v);
  Alcotest.(check bool) ">" false (Epoch.leq_vc (Epoch.make ~time:9 ~tid:1) v);
  Alcotest.(check bool) "none ≤ anything" true (Epoch.leq_vc Epoch.none (Vc.create 2))

let test_epoch_of_vc_entry () =
  let v = Vc.of_array [| 3; 8 |] in
  let e = Epoch.of_vc_entry v 1 in
  Alcotest.(check int) "time" 8 (Epoch.time e);
  Alcotest.(check int) "tid" 1 (Epoch.tid e)

(* Fig 4 of the paper: order t1<t2<t5<t3<t4, times 6/20/1/8/0 (here 0-based
   ids 0,1,4,2,3); O.set(t4,6) moves t4 to the head; O.inc(t1,1) moves t1. *)
let fig4_list () =
  let o = Ol.create 5 in
  (* build the order by setting in reverse: last set ends up at the head *)
  Ol.set o 3 0;
  Ol.set o 2 8;
  Ol.set o 4 1;
  Ol.set o 1 20;
  Ol.set o 0 6;
  o

let test_ol_fig4_initial () =
  let o = fig4_list () in
  Alcotest.(check (list int)) "order t1<t2<t5<t3<t4" [ 0; 1; 4; 2; 3 ] (Ol.order o);
  Alcotest.(check int) "get t3" 8 (Ol.get o 2)

let test_ol_fig4_set () =
  let o = fig4_list () in
  Ol.set o 3 6;
  Alcotest.(check (list int)) "t4 moved to head" [ 3; 0; 1; 4; 2 ] (Ol.order o);
  Alcotest.(check int) "t4 time" 6 (Ol.get o 3)

let test_ol_fig4_inc () =
  let o = fig4_list () in
  Ol.set o 3 6;
  Ol.increment o 0 1;
  Alcotest.(check (list int)) "t1 moved to head" [ 0; 3; 1; 4; 2 ] (Ol.order o);
  Alcotest.(check int) "t1 time 7" 7 (Ol.get o 0)

let test_ol_deep_copy () =
  let o = fig4_list () in
  let c = Ol.deep_copy o in
  Alcotest.(check (list int)) "order preserved" (Ol.order o) (Ol.order c);
  Ol.set c 3 99;
  Alcotest.(check int) "original value untouched" 0 (Ol.get o 3);
  Alcotest.(check (list int)) "original order untouched" [ 0; 1; 4; 2; 3 ] (Ol.order o)

let test_ol_prefix () =
  let o = fig4_list () in
  let seen = ref [] in
  Ol.iter_prefix o 2 (fun tid time -> seen := (tid, time) :: !seen);
  Alcotest.(check (list (pair int int))) "first two" [ (0, 6); (1, 20) ] (List.rev !seen);
  let all = ref 0 in
  Ol.iter_prefix o 100 (fun _ _ -> incr all);
  Alcotest.(check int) "prefix larger than T" 5 !all

let test_ol_leq () =
  let o = Ol.create 3 in
  Ol.set o 0 2;
  Ol.set o 2 5;
  Alcotest.(check bool) "ol ⊑ vc" true (Ol.leq_vc o (Vc.of_array [| 2; 0; 6 |]));
  Alcotest.(check bool) "ol ⋢ vc" false (Ol.leq_vc o (Vc.of_array [| 1; 0; 6 |]));
  Alcotest.(check bool) "vc ⊑ ol" true (Ol.vc_leq (Vc.of_array [| 2; 0; 5 |]) o);
  Alcotest.(check bool) "vc ⋢ ol" false (Ol.vc_leq (Vc.of_array [| 3; 0; 5 |]) o)

let test_ol_to_vc () =
  let o = fig4_list () in
  Alcotest.(check (array int)) "snapshot" [| 6; 20; 8; 0; 1 |] (Vc.to_array (Ol.to_vc o))

let test_ol_single_node () =
  let o = Ol.create 1 in
  Ol.set o 0 5;
  Ol.increment o 0 2;
  Alcotest.(check int) "value" 7 (Ol.get o 0);
  Alcotest.(check (list int)) "order" [ 0 ] (Ol.order o);
  Alcotest.(check bool) "invariants" true (Ol.check_invariants o)

(* Model-based qcheck: random op sequences; check values against an array
   model and the node order against a recency list. *)
type op = Set of int * int | Inc of int * int | Copy

let op_gen n =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun t v -> Set (t, v)) (int_bound (n - 1)) (int_bound 50));
        (4, map2 (fun t v -> Inc (t, v)) (int_bound (n - 1)) (int_bound 5));
        (1, return Copy);
      ])

let ops_arbitrary n = QCheck.make QCheck.Gen.(list_size (int_bound 60) (op_gen n))

let model_order_after ops n =
  (* most recently updated first; untouched threads keep initial order *)
  let recency = ref (List.init n Fun.id) in
  List.iter
    (fun o ->
      match o with
      | Set (t, _) | Inc (t, _) -> recency := t :: List.filter (fun x -> x <> t) !recency
      | Copy -> ())
    ops;
  !recency

let prop_ol_matches_model n ops =
  let o = ref (Ol.create n) in
  let model = Array.make n 0 in
  List.iter
    (fun op ->
      match op with
      | Set (t, v) ->
        Ol.set !o t v;
        model.(t) <- v
      | Inc (t, v) ->
        Ol.increment !o t v;
        model.(t) <- model.(t) + v
      | Copy -> o := Ol.deep_copy !o)
    ops;
  Ol.check_invariants !o
  && Array.for_all Fun.id (Array.init n (fun t -> Ol.get !o t = model.(t)))
  && Ol.order !o = model_order_after ops n

let qcheck_ol_model =
  QCheck.Test.make ~name:"ordered list matches array+recency model" ~count:300
    (ops_arbitrary 5)
    (fun ops -> prop_ol_matches_model 5 ops)

let qcheck_ol_prefix_covers_recent =
  (* after any op sequence, the first d nodes contain every thread updated
     among the last d updates — the property Alg 4's traversal relies on *)
  QCheck.Test.make ~name:"prefix covers the last d updates" ~count:300
    QCheck.(pair (ops_arbitrary 6) (int_bound 6))
    (fun (ops, d) ->
      let o = Ol.create 6 in
      List.iter
        (fun op ->
          match op with
          | Set (t, v) -> Ol.set o t v
          | Inc (t, v) -> Ol.increment o t v
          | Copy -> ())
        ops;
      let touched = List.filter_map (function Set (t, _) | Inc (t, _) -> Some t | Copy -> None) ops in
      let last_d =
        let rec take k = function [] -> [] | x :: r -> if k = 0 then [] else x :: take (k - 1) r in
        take d (List.rev touched)
      in
      let prefix = ref [] in
      Ol.iter_prefix o d (fun tid _ -> prefix := tid :: !prefix);
      List.for_all (fun t -> List.mem t !prefix) last_d)

(* [copy_into] writes only the nodes below the two watermarks (and the one
   at the higher of them), so it must agree with a full [deep_copy] whatever
   either list went through — including a list rebuilt by [decode], whose
   watermark is recomputed rather than carried over. *)
type ol_case = {
  n : int;
  src_ops : (int * int) list;   (* (thread, value); value < 0 = increment *)
  dst_ops : (int * int) list;
  src_decoded : bool;
  dst_decoded : bool;
  after : (int * int) list;     (* applied to the copy and the deep copy *)
  depth : int;
}

let ol_case_gen =
  QCheck.Gen.(
    let* n = int_range 1 64 in
    let op = pair (int_bound (n - 1)) (int_range (-5) 50) in
    let ops = list_size (int_bound 80) op in
    let* src_ops = ops and* dst_ops = ops and* after = list_size (int_bound 20) op in
    let* src_decoded = bool and* dst_decoded = bool and* depth = int_bound (n + 1) in
    return { n; src_ops; dst_ops; src_decoded; dst_decoded; after; depth })

let print_ol_case c =
  let ops l = String.concat ";" (List.map (fun (t, v) -> Printf.sprintf "%d:%d" t v) l) in
  Printf.sprintf "n=%d src=[%s]%s dst=[%s]%s after=[%s] d=%d" c.n (ops c.src_ops)
    (if c.src_decoded then " (decoded)" else "")
    (ops c.dst_ops)
    (if c.dst_decoded then " (decoded)" else "")
    (ops c.after) c.depth

let apply_ops o = List.iter (fun (t, v) -> if v < 0 then Ol.increment o t (-v) else Ol.set o t v)

let roundtrip o =
  let enc = Ft_core.Snap.Enc.create () in
  Ol.encode enc o;
  Ol.decode (Ft_core.Snap.Dec.of_snap (Ft_core.Snap.Enc.to_snap enc)) ~size:(Ol.size o)

let build n ops ~decoded =
  let o = Ol.create n in
  apply_ops o ops;
  if decoded then roundtrip o else o

let same_list a b =
  let n = Ol.size a in
  Ol.size b = n
  && List.for_all (fun t -> Ol.get a t = Ol.get b t) (List.init n Fun.id)
  && Ol.order a = Ol.order b

let prefix o d =
  let acc = ref [] in
  Ol.iter_prefix o d (fun t v -> acc := (t, v) :: !acc);
  List.rev !acc

let prop_copy_into_is_deep_copy c =
  let src = build c.n c.src_ops ~decoded:c.src_decoded in
  let into = build c.n c.dst_ops ~decoded:c.dst_decoded in
  let reference = Ol.deep_copy src in
  Ol.copy_into ~into src;
  let copied_ok =
    same_list into reference && Ol.check_invariants into && Ol.check_invariants reference
  in
  apply_ops into c.after;
  apply_ops reference c.after;
  copied_ok
  && same_list into reference
  && Ol.check_invariants into
  && prefix into c.depth = prefix reference c.depth

let qcheck_ol_copy_into =
  QCheck.Test.make ~name:"copy_into ≡ deep_copy, decoded lists included" ~count:500
    (QCheck.make ~print:print_ol_case ol_case_gen)
    prop_copy_into_is_deep_copy

let () =
  Alcotest.run "clocks"
    [
      ( "vector_clock",
        [
          Alcotest.test_case "create" `Quick test_vc_create;
          Alcotest.test_case "set/get/inc" `Quick test_vc_set_get_inc;
          Alcotest.test_case "join" `Quick test_vc_join;
          Alcotest.test_case "join_count" `Quick test_vc_join_count;
          Alcotest.test_case "leq" `Quick test_vc_leq;
          Alcotest.test_case "copy independence" `Quick test_vc_copy_independent;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "packing" `Quick test_epoch_pack;
          Alcotest.test_case "leq_vc" `Quick test_epoch_leq_vc;
          Alcotest.test_case "of_vc_entry" `Quick test_epoch_of_vc_entry;
        ] );
      ( "ordered_list",
        [
          Alcotest.test_case "fig4 initial" `Quick test_ol_fig4_initial;
          Alcotest.test_case "fig4 set moves to front" `Quick test_ol_fig4_set;
          Alcotest.test_case "fig4 inc moves to front" `Quick test_ol_fig4_inc;
          Alcotest.test_case "deep copy" `Quick test_ol_deep_copy;
          Alcotest.test_case "prefix iteration" `Quick test_ol_prefix;
          Alcotest.test_case "leq comparisons" `Quick test_ol_leq;
          Alcotest.test_case "to_vc" `Quick test_ol_to_vc;
          Alcotest.test_case "single node" `Quick test_ol_single_node;
        ] );
      ( "ordered_list_properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_ol_model; qcheck_ol_prefix_covers_recent; qcheck_ol_copy_into ]
      );
    ]

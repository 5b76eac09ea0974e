(* Bit-for-bit equivalence of the blocked/parallel tensor kernels with
   naive sequential references, aliasing discipline of the in-place AD
   accumulation, and the deep-tape backward pass. *)

let exact_eq msg a b = Alcotest.(check bool) msg true (Tensor.equal a b)
let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Naive references replicating the historical (pre-kernel) semantics,
   including which operand's zeros were skipped in each rank dispatch. *)

let ref_matmul a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  let m = sa.(0) and k = sa.(1) and n = sb.(1) in
  let ad = Tensor.to_array a and bd = Tensor.to_array b in
  let c = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let aip = ad.((i * k) + p) in
      if aip <> 0. then
        for j = 0 to n - 1 do
          c.((i * n) + j) <- c.((i * n) + j) +. (aip *. bd.((p * n) + j))
        done
    done
  done;
  Tensor.of_array [| m; n |] c

let ref_matvec a x =
  let sa = Tensor.shape a in
  let m = sa.(0) and k = sa.(1) in
  let ad = Tensor.to_array a and xd = Tensor.to_array x in
  Tensor.of_array [| m |]
    (Array.init m (fun i ->
         let acc = ref 0. in
         for p = 0 to k - 1 do
           acc := !acc +. (ad.((i * k) + p) *. xd.(p))
         done;
         !acc))

let ref_vecmat x b =
  let sb = Tensor.shape b in
  let k = sb.(0) and n = sb.(1) in
  let xd = Tensor.to_array x and bd = Tensor.to_array b in
  let y = Array.make n 0. in
  for p = 0 to k - 1 do
    let xp = xd.(p) in
    if xp <> 0. then
      for j = 0 to n - 1 do
        y.(j) <- y.(j) +. (xp *. bd.((p * n) + j))
      done
  done;
  Tensor.of_array [| n |] y

(* Broadcast binary map through multi-index projection — independent of
   the stride walker and all its fast paths. *)
let ref_map2 f a b =
  let out_shape = Tensor.broadcast_shapes (Tensor.shape a) (Tensor.shape b) in
  let ro = Array.length out_shape in
  let proj t ix =
    let s = Tensor.shape t in
    let r = Array.length s in
    Tensor.get t
      (Array.init r (fun d ->
           let i = ix.(d + ro - r) in
           if s.(d) = 1 then 0 else i))
  in
  Tensor.init out_shape (fun ix -> f (proj a ix) (proj b ix))

(* ------------------------------------------------------------------ *)
(* Generators: dimensions include the degenerate 0 and 1, values include
   exact zeros so the skip branches are exercised. *)

let dim_gen = QCheck.Gen.oneofl [ 0; 1; 2; 3; 5; 8; 17 ]

let val_gen =
  QCheck.Gen.(
    frequency [ (1, return 0.); (4, float_range (-10.) 10.) ])

let mat_gen =
  QCheck.Gen.(
    pair dim_gen dim_gen >>= fun (m, n) ->
    array_size (return (m * n)) val_gen >|= fun data ->
    Tensor.of_array [| m; n |] data)

let matmul_pair_gen =
  QCheck.Gen.(
    dim_gen >>= fun m ->
    dim_gen >>= fun k ->
    dim_gen >>= fun n ->
    array_size (return (m * k)) val_gen >>= fun da ->
    array_size (return (k * n)) val_gen >|= fun db ->
    (Tensor.of_array [| m; k |] da, Tensor.of_array [| k; n |] db))

let arb_matmul_pair =
  QCheck.make
    ~print:(fun (a, b) -> Tensor.to_string a ^ " x " ^ Tensor.to_string b)
    matmul_pair_gen

let prop_matmul_matches_ref =
  QCheck.Test.make ~name:"matmul bit-identical to naive reference" ~count:300
    arb_matmul_pair
    (fun (a, b) -> Tensor.equal (Tensor.matmul a b) (ref_matmul a b))

let prop_matvec_matches_ref =
  QCheck.Test.make ~name:"matvec/vecmat bit-identical to references" ~count:300
    arb_matmul_pair
    (fun (a, b) ->
      (* 2x1: A * first column of b as a vector; 1x2: first row of a. *)
      let sa = Tensor.shape a and sb = Tensor.shape b in
      let v_right = Tensor.init [| sa.(1) |] (fun ix -> float_of_int ix.(0) -. 2.) in
      let v_left = Tensor.init [| sb.(0) |] (fun ix -> float_of_int (ix.(0) mod 3)) in
      Tensor.equal (Tensor.matmul a v_right) (ref_matvec a v_right)
      && Tensor.equal (Tensor.matmul v_left b) (ref_vecmat v_left b))

let prop_matmul_t_matches_transpose =
  QCheck.Test.make
    ~name:"matmul_t/t_matmul bit-identical to transpose formulations"
    ~count:300 arb_matmul_pair
    (fun (a, b) ->
      (* a : m x k, b : k x n. matmul_t wants n x k on the right;
         t_matmul pairs a with an m x n right operand. *)
      let bt = Tensor.transpose b in
      let g =
        Tensor.init
          [| (Tensor.shape a).(0); (Tensor.shape b).(1) |]
          (fun ix -> Float.sin (float_of_int ((ix.(0) * 7) + ix.(1))))
      in
      Tensor.equal (Tensor.matmul_t a bt) (Tensor.matmul a b)
      && Tensor.equal (Tensor.t_matmul a g)
           (Tensor.matmul (Tensor.transpose a) g)
      &&
      let gv = Tensor.init [| (Tensor.shape a).(0) |] (fun ix -> 0.5 *. float_of_int ix.(0)) in
      Tensor.equal (Tensor.t_matmul a gv)
        (Tensor.matmul (Tensor.transpose a) gv))

(* Broadcast-compatible pair: derive the second shape from the first by
   dropping leading dims and turning some dims into 1. *)
let map2_pair_gen =
  QCheck.Gen.(
    oneofl [ [||]; [| 3 |]; [| 4; 3 |]; [| 2; 4; 3 |]; [| 0; 3 |]; [| 2; 1; 3 |] ]
    >>= fun shape_a ->
    int_range 0 (Array.length shape_a) >>= fun drop ->
    let rb = Array.length shape_a - drop in
    let shape_b_base = Array.sub shape_a drop rb in
    flatten_l
      (List.map
         (fun d -> map (fun b -> if b then 1 else d) bool)
         (Array.to_list shape_b_base))
    >>= fun dims_b ->
    let shape_b = Array.of_list dims_b in
    let size s = Array.fold_left ( * ) 1 s in
    array_size (return (size shape_a)) val_gen >>= fun da ->
    array_size (return (size shape_b)) val_gen >|= fun db ->
    (Tensor.of_array shape_a da, Tensor.of_array shape_b db))

let prop_map2_matches_ref =
  QCheck.Test.make ~name:"map2 broadcast bit-identical to projection ref"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Tensor.to_string a ^ " (+) " ^ Tensor.to_string b)
       map2_pair_gen)
    (fun (a, b) ->
      Tensor.equal (Tensor.add a b) (ref_map2 ( +. ) a b)
      && Tensor.equal (Tensor.add b a) (ref_map2 ( +. ) b a)
      && Tensor.equal (Tensor.mul a b) (ref_map2 ( *. ) a b))

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts: the same inputs must produce the
   same bits with 1 domain (inline) and with a real worker pool, for
   sizes on both sides of the fan-out thresholds. *)

let test_parallel_determinism () =
  let det_mat shape seed =
    Tensor.init shape (fun ix ->
        let h = Array.fold_left (fun acc i -> (acc * 31) + i) seed ix in
        Float.sin (float_of_int h))
  in
  let workload () =
    let small_a = det_mat [| 3; 5 |] 1 and small_b = det_mat [| 5; 4 |] 2 in
    (* 256x200x64 = 3.3M mults and 300x300 elementwise both exceed the
       sequential thresholds, so blocks really run on the pool. *)
    let big_a = det_mat [| 256; 200 |] 3 and big_b = det_mat [| 200; 64 |] 4 in
    let big_e = det_mat [| 300; 300 |] 5 in
    let bias = det_mat [| 300 |] 6 in
    [ Tensor.matmul small_a small_b;
      Tensor.matmul big_a big_b;
      Tensor.matmul_t big_a (Tensor.transpose big_b);
      Tensor.t_matmul big_a (det_mat [| 256; 32 |] 7);
      Tensor.matmul big_a (det_mat [| 200 |] 8);
      Tensor.softplus big_e;
      Tensor.add big_e bias;
      Tensor.mul big_e (det_mat [| 1; 300 |] 9);
      Tensor.broadcast_to bias [| 300; 300 |] ]
  in
  let with_domains d =
    Parallel.set_domains d;
    let r = workload () in
    r
  in
  let seq = with_domains 1 in
  List.iter
    (fun d ->
      let par = with_domains d in
      Alcotest.(check int) "domain count" d (Parallel.domains ());
      List.iteri
        (fun i (a, b) ->
          exact_eq (Printf.sprintf "domains=%d result %d" d i) a b)
        (List.combine seq par))
    [ 2; 4 ];
  Parallel.set_domains 1

(* ------------------------------------------------------------------ *)
(* In-place API semantics. *)

let test_inplace_ops () =
  let t = Tensor.of_list1 [ 1.; 2. ] in
  Tensor.fill_ t 5.;
  exact_eq "fill_" (Tensor.of_list1 [ 5.; 5. ]) t;
  Tensor.scale_ 2. t;
  exact_eq "scale_" (Tensor.of_list1 [ 10.; 10. ]) t;
  Tensor.add_ t (Tensor.of_list1 [ 1.; 2. ]);
  exact_eq "add_" (Tensor.of_list1 [ 11.; 12. ]) t;
  Tensor.axpy ~alpha:2. ~x:(Tensor.of_list1 [ 1.; 2. ]) t;
  exact_eq "axpy" (Tensor.of_list1 [ 13.; 16. ]) t;
  Tensor.map2_ ( *. ) t (Tensor.of_list1 [ 2.; 0.5 ]);
  exact_eq "map2_" (Tensor.of_list1 [ 26.; 8. ]) t;
  Alcotest.check_raises "add_ shape mismatch"
    (Tensor.Shape_error "add_: [2] vs [3]") (fun () ->
      Tensor.add_ t (Tensor.of_list1 [ 1.; 2.; 3. ]));
  let orig = Tensor.of_list1 [ 1.; 2. ] in
  let c = Tensor.copy orig in
  Tensor.fill_ c 9.;
  exact_eq "copy is deep" (Tensor.of_list1 [ 1.; 2. ]) orig

let test_broadcast_to () =
  let historical t out_shape =
    Tensor.map2 (fun x _ -> x) t (Tensor.zeros out_shape)
  in
  List.iter
    (fun (t, out_shape) ->
      exact_eq "broadcast_to matches historical map2 formulation"
        (historical t out_shape)
        (Tensor.broadcast_to t out_shape))
    [ (Tensor.of_list1 [ 1.; 2.; 3. ], [| 2; 3 |]);
      (Tensor.of_array [| 2; 1 |] [| 5.; 6. |], [| 2; 4 |]);
      (Tensor.of_array [| 1; 3 |] [| 1.; 2.; 3. |], [| 2; 3 |]);
      (Tensor.scalar 7., [| 2; 2 |]);
      (* dims of [t] exceeding the target survive, as with map2 *)
      (Tensor.of_list2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ], [| 3 |]) ]

(* ------------------------------------------------------------------ *)
(* AD: in-place accumulation must never corrupt shared buffers. The vjp
   of [add] is the identity, so the first delta a node receives is the
   parent's own gradient buffer. *)

let test_ad_alias_safety () =
  let x = Ad.param (Tensor.of_list1 [ 1.; 2.; 3. ]) in
  let z = Ad.add x x in
  let s = Ad.sum z in
  Ad.backward s;
  exact_eq "grad x accumulated twice" (Tensor.of_list1 [ 2.; 2.; 2. ])
    (Ad.grad x);
  (* z's gradient buffer was shared with x's first delta; the second
     accumulation must not have mutated it. *)
  exact_eq "grad z unchanged" (Tensor.of_list1 [ 1.; 1.; 1. ]) (Ad.grad z)

let test_ad_diamond () =
  (* s = sum (y + y) with y = 2x: every edge delivers an aliased delta. *)
  let x = Ad.param (Tensor.of_list1 [ 1.; -1.; 0.5 ]) in
  let y = Ad.scale 2. x in
  let z = Ad.add y y in
  let s = Ad.sum z in
  Ad.backward s;
  exact_eq "diamond grad x" (Tensor.of_list1 [ 4.; 4.; 4. ]) (Ad.grad x);
  exact_eq "diamond grad y" (Tensor.of_list1 [ 2.; 2.; 2. ]) (Ad.grad y)

let test_deep_tape () =
  (* A 300k-node chain overflows the OCaml stack with a recursive DFS;
     the explicit-stack backward must handle it. *)
  let x = Ad.param (Tensor.scalar 1.) in
  let y = ref x in
  for _ = 1 to 300_000 do
    y := Ad.add_scalar 0. !y
  done;
  Ad.backward !y;
  check_float "deep chain gradient" 1. (Tensor.to_scalar (Ad.grad x))

(* ------------------------------------------------------------------ *)
(* Optimizer snapshots must be isolated from in-place moment updates. *)

let test_optim_snapshot_isolated () =
  let store = Store.create () in
  Store.ensure store "w" (fun () -> Tensor.of_list1 [ 1.; 2. ]);
  let optim = Optim.adam ~lr:0.1 () in
  let g1 = Tensor.of_list1 [ 0.5; -0.25 ] in
  let g2 = Tensor.of_list1 [ -1.; 0.75 ] in
  Optim.step optim Optim.Descend store [ ("w", g1) ];
  let snap = Optim.snapshot optim in
  let w_at_snap = Tensor.copy (Store.tensor store "w") in
  Optim.step optim Optim.Descend store [ ("w", g2) ];
  let w_after = Tensor.copy (Store.tensor store "w") in
  (* Roll back and replay: if the snapshot shared moment buffers with
     the live state, the first replayed step would see corrupted m/v. *)
  Optim.restore optim snap;
  Store.set store "w" w_at_snap;
  Optim.step optim Optim.Descend store [ ("w", g2) ];
  exact_eq "replayed step matches original" w_after (Store.tensor store "w");
  (* Restoring twice from the same snapshot must also be stable. *)
  Optim.restore optim snap;
  Store.set store "w" w_at_snap;
  Optim.step optim Optim.Descend store [ ("w", g2) ];
  exact_eq "second replay matches too" w_after (Store.tensor store "w")

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matmul_matches_ref; prop_matvec_matches_ref;
      prop_matmul_t_matches_transpose; prop_map2_matches_ref ]

let suites =
  [ ( "kernel",
      [ Alcotest.test_case "parallel determinism" `Quick
          test_parallel_determinism;
        Alcotest.test_case "in-place ops" `Quick test_inplace_ops;
        Alcotest.test_case "broadcast_to" `Quick test_broadcast_to;
        Alcotest.test_case "ad alias safety" `Quick test_ad_alias_safety;
        Alcotest.test_case "ad diamond" `Quick test_ad_diamond;
        Alcotest.test_case "deep tape" `Quick test_deep_tape;
        Alcotest.test_case "optim snapshot isolation" `Quick
          test_optim_snapshot_isolated ]
      @ qcheck_cases ) ]

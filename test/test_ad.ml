(* Reverse-mode AD tests: every vjp is validated against central finite
   differences, plus structural tests for stop_grad / custom nodes. *)

let check_grad ?(tol = 1e-4) name f x =
  (* f : Ad.t -> Ad.t (scalar output); x : Tensor.t input. *)
  let leaf = Ad.param x in
  let out = f leaf in
  Ad.backward out;
  let analytic = Ad.grad leaf in
  let numeric = Ad.finite_diff_grad (fun xv -> Ad.to_float (f (Ad.const xv))) x in
  if not (Tensor.approx_equal ~tol analytic numeric) then
    Alcotest.failf "%s: analytic %s vs numeric %s" name
      (Tensor.to_string analytic) (Tensor.to_string numeric)

let vec = Tensor.of_list1 [ 0.3; -1.2; 2.5 ]
let pos_vec = Tensor.of_list1 [ 0.3; 1.2; 2.5 ]
let mat = Tensor.of_list2 [ [ 0.5; -0.25 ]; [ 1.5; 2.0 ] ]

let test_unary_grads () =
  check_grad "exp" (fun x -> Ad.sum (Ad.exp x)) vec;
  check_grad "log" (fun x -> Ad.sum (Ad.log x)) pos_vec;
  check_grad "sqrt" (fun x -> Ad.sum (Ad.sqrt x)) pos_vec;
  check_grad "sigmoid" (fun x -> Ad.sum (Ad.sigmoid x)) vec;
  check_grad "tanh" (fun x -> Ad.sum (Ad.tanh x)) vec;
  check_grad "softplus" (fun x -> Ad.sum (Ad.softplus x)) vec;
  check_grad "relu away from kink" (fun x -> Ad.sum (Ad.relu x)) vec;
  check_grad "neg" (fun x -> Ad.sum (Ad.neg x)) vec;
  check_grad "scale" (fun x -> Ad.sum (Ad.scale 3.5 x)) vec;
  check_grad "add_scalar" (fun x -> Ad.sum (Ad.add_scalar 2. x)) vec;
  check_grad "pow 3" (fun x -> Ad.sum (Ad.pow_scalar x 3.)) pos_vec

let test_binary_grads () =
  let c = Ad.const (Tensor.of_list1 [ 1.5; 0.5; -0.7 ]) in
  check_grad "add" (fun x -> Ad.sum (Ad.add x c)) vec;
  check_grad "sub" (fun x -> Ad.sum (Ad.sub x c)) vec;
  check_grad "mul" (fun x -> Ad.sum (Ad.mul x c)) vec;
  check_grad "div" (fun x -> Ad.sum (Ad.div x c)) vec;
  check_grad "div denominator" (fun x -> Ad.sum (Ad.div c x)) pos_vec

let test_both_sides_of_mul () =
  (* Gradient flows to both operands when they are the same node. *)
  let x = Ad.param (Tensor.scalar 3.) in
  let y = Ad.mul x x in
  Ad.backward y;
  Alcotest.(check (float 1e-9)) "d(x^2)/dx = 2x" 6.
    (Tensor.to_scalar (Ad.grad x))

let test_broadcast_grad () =
  (* Broadcast a scalar across a vector; its gradient is the sum. *)
  let s = Ad.param (Tensor.scalar 2.) in
  let v = Ad.const vec in
  let out = Ad.sum (Ad.mul s v) in
  Ad.backward out;
  Alcotest.(check (float 1e-9)) "scalar grad is sum of vec"
    (Tensor.sum vec)
    (Tensor.to_scalar (Ad.grad s));
  (* Row broadcast against a matrix. *)
  let row = Ad.param (Tensor.of_array [| 1; 2 |] [| 1.; 2. |]) in
  let m = Ad.const mat in
  let out2 = Ad.sum (Ad.mul row m) in
  Ad.backward out2;
  let expected = Tensor.of_array [| 1; 2 |] [| 0.5 +. 1.5; -0.25 +. 2.0 |] in
  Alcotest.(check bool) "row grad sums columns" true
    (Tensor.approx_equal ~tol:1e-9 (Ad.grad row) expected)

let test_matmul_grads () =
  check_grad "matmul lhs"
    (fun x -> Ad.sum (Ad.matmul x (Ad.const mat)))
    (Tensor.of_list2 [ [ 1.; 2. ]; [ 3.; 4. ] ]);
  check_grad "matmul rhs"
    (fun x -> Ad.sum (Ad.matmul (Ad.const mat) x))
    (Tensor.of_list2 [ [ 1.; 2. ]; [ 3.; 4. ] ]);
  check_grad "matvec" (fun x -> Ad.sum (Ad.matmul (Ad.const mat) x))
    (Tensor.of_list1 [ 1.; -1. ]);
  check_grad "vecmat" (fun x -> Ad.sum (Ad.matmul x (Ad.const mat)))
    (Tensor.of_list1 [ 1.; -1. ]);
  check_grad "dot" (fun x -> Ad.dot x (Ad.const vec)) vec;
  check_grad "transpose" (fun x -> Ad.sum (Ad.matmul (Ad.transpose x) x)) mat

let test_reductions () =
  check_grad "sum" Ad.sum vec;
  check_grad "mean" Ad.mean vec;
  check_grad "logsumexp" Ad.logsumexp vec;
  check_grad "log_softmax pick"
    (fun x -> Ad.get (Ad.log_softmax x) [| 1 |])
    vec

let test_structural_grads () =
  check_grad "reshape" (fun x -> Ad.sum (Ad.pow_scalar (Ad.reshape [| 4 |] x) 2.)) mat;
  check_grad "slice0" (fun x -> Ad.sum (Ad.slice0 x 1)) mat;
  check_grad "get" (fun x -> Ad.get x [| 1; 0 |]) mat;
  check_grad "concat" (fun x -> Ad.sum (Ad.concat0 [ x; Ad.const mat ])) mat;
  check_grad "stack" (fun x -> Ad.sum (Ad.stack0 [ x; Ad.const vec ])) vec

let test_stop_grad () =
  let x = Ad.param (Tensor.scalar 2.) in
  let y = Ad.mul (Ad.stop_grad x) x in
  Ad.backward y;
  (* d/dx of stop(x) * x = stop(x) = 2, not 2x = 4. *)
  Alcotest.(check (float 1e-9)) "stop_grad blocks one path" 2.
    (Tensor.to_scalar (Ad.grad x))

let test_magic_box_identity () =
  (* The DiCE construction: y + stop(y)*(l - stop l) has the value of y and
     gradient dy + y dl. *)
  let theta = Ad.param (Tensor.scalar 1.5) in
  let y = Ad.mul theta theta in
  let l = Ad.scale 3. theta in
  let surrogate =
    Ad.add y (Ad.mul (Ad.stop_grad y) (Ad.sub l (Ad.stop_grad l)))
  in
  Alcotest.(check (float 1e-9)) "value unchanged" 2.25 (Ad.to_float surrogate);
  Ad.backward surrogate;
  (* dy/dtheta = 2*1.5 = 3; y*dl/dtheta = 2.25*3 = 6.75; total 9.75 *)
  Alcotest.(check (float 1e-9)) "gradient includes score term" 9.75
    (Tensor.to_scalar (Ad.grad theta))

let test_custom_node () =
  let x = Ad.param (Tensor.scalar 3.) in
  (* A custom node computing x^2 with a hand-written vjp. *)
  let y =
    Ad.custom
      ~value:(Tensor.scalar 9.)
      ~parents:[ (x, fun g -> Tensor.scale (2. *. 3.) g) ]
  in
  Ad.backward y;
  Alcotest.(check (float 1e-9)) "custom vjp" 6. (Tensor.to_scalar (Ad.grad x))

let test_shared_subexpression () =
  (* Diamond graph: z = (x + x) * (x + x); dz/dx = 8x. *)
  let x = Ad.param (Tensor.scalar 2.) in
  let s = Ad.add x x in
  let z = Ad.mul s s in
  Ad.backward z;
  Alcotest.(check (float 1e-9)) "diamond" 16. (Tensor.to_scalar (Ad.grad x))

let test_mlp_grad_check () =
  (* A small two-layer network, gradient-checked end to end. *)
  let w2 = Ad.const (Tensor.of_list2 [ [ 0.3 ]; [ -0.6 ] ]) in
  let f w1 =
    let h = Ad.tanh (Ad.matmul (Ad.const mat) w1) in
    Ad.sum (Ad.sigmoid (Ad.matmul h w2))
  in
  check_grad "mlp w1" f (Tensor.of_list2 [ [ 0.1; -0.2 ]; [ 0.4; 0.3 ] ])

let test_non_scalar_backward_rejected () =
  Alcotest.(check bool) "non-scalar root raises" true
    (try
       Ad.backward (Ad.const vec);
       false
     with Invalid_argument _ -> true)

let test_add_list () =
  let xs = List.map (fun v -> Ad.const (Tensor.scalar v)) [ 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "add_list" 6. (Ad.to_float (Ad.add_list xs));
  Alcotest.(check (float 1e-9)) "add_list empty" 0.
    (Ad.to_float (Ad.add_list []))

(* Property: random expression trees gradient-check. *)

let arb_vec3 =
  QCheck.make
    ~print:(fun a -> Tensor.to_string (Tensor.of_array [| 3 |] a))
    QCheck.Gen.(array_size (return 3) (float_range 0.2 2.))

let prop_random_expression =
  QCheck.Test.make ~name:"random smooth expressions grad-check" ~count:60
    arb_vec3 (fun data ->
      let x = Tensor.of_array [| 3 |] data in
      let f x =
        Ad.O.(
          Ad.sum (Ad.exp (Ad.scale 0.3 x) * Ad.sigmoid x)
          + Ad.logsumexp x
          - Ad.mean (Ad.tanh x))
      in
      let leaf = Ad.param x in
      let out = f leaf in
      Ad.backward out;
      let analytic = Ad.grad leaf in
      let numeric =
        Ad.finite_diff_grad (fun xv -> Ad.to_float (f (Ad.const xv))) x
      in
      Tensor.approx_equal ~tol:1e-3 analytic numeric)

(* Activity pruning. A graph is a list of ops over a growing pool of
   nodes (indices taken modulo the pool size, so subexpressions are
   shared and diamonds are common); a [Ckpt] op builds its sub-list
   behind an [Ad.checkpoint] barrier and pushes the barrier. *)
type op = Un of int * int | Bin of int * int * int | Ckpt of op list

let rec show_op = function
  | Un (k, i) -> Printf.sprintf "Un(%d,%d)" k i
  | Bin (k, i, j) -> Printf.sprintf "Bin(%d,%d,%d)" k i j
  | Ckpt ops -> "Ckpt[" ^ String.concat ";" (List.map show_op ops) ^ "]"

let gen_ops =
  let open QCheck.Gen in
  let basic =
    frequency
      [ (3, map2 (fun k i -> Un (k, i)) (int_bound 5) (int_bound 1000));
        ( 4,
          map3
            (fun k i j -> Bin (k, i, j))
            (int_bound 3) (int_bound 1000) (int_bound 1000) ) ]
  in
  sized_size (int_range 1 4)
    (fix (fun self depth ->
         let sub =
           if depth <= 1 then [] else [ (1, map (fun l -> Ckpt l) (self (depth - 1))) ]
         in
         list_size (int_range 1 8) (frequency ((6, basic) :: sub))))

let apply_un k x =
  match k with
  | 0 -> Ad.tanh x
  | 1 -> Ad.softplus x
  | 2 -> Ad.sigmoid x
  | 3 -> Ad.scale 0.5 x
  | 4 -> Ad.neg x
  | _ -> Ad.add x (Ad.sum x)

let apply_bin k a b =
  match k with
  | 0 -> Ad.add a b
  | 1 -> Ad.sub a b
  | 2 -> Ad.mul a (Ad.tanh b)
  | _ -> Ad.div a (Ad.add_scalar 2. (Ad.softplus b))

(* Builds the graph over [leaves] and returns the scalar root; with
   [remat = false], [Ckpt] ops are inlined. *)
let build_graph ~remat leaves ops =
  let rec run pool ops =
    List.fold_left
      (fun pool op ->
        let n = Array.length pool in
        let node =
          match op with
          | Un (k, i) -> apply_un k pool.(i mod n)
          | Bin (k, i, j) -> apply_bin k pool.(i mod n) pool.(j mod n)
          | Ckpt sub ->
            let seg () =
              let p = run pool sub in
              p.(Array.length p - 1)
            in
            if remat then Ad.checkpoint seg else seg ()
        in
        Array.append pool [| node |])
      pool ops
  in
  let pool = run leaves ops in
  let k = Array.length leaves in
  Ad.sum (Ad.add_list (Array.to_list (Array.sub pool k (Array.length pool - k))))

let grad_bits t = Array.map Int64.bits_of_float (Tensor.to_array (Ad.grad t))

let prop_pruned_sweep_bit_identical =
  QCheck.Test.make ~name:"const/param mixes: param grads bit-identical" ~count:150
    (QCheck.make
       ~print:(fun (mask, seed, ops) ->
         Printf.sprintf "mask %d seed %d [%s]" mask seed
           (String.concat "; " (List.map show_op ops)))
       QCheck.Gen.(triple (int_bound 15) (int_bound 1000) gen_ops))
    (fun (mask, seed, ops) ->
      let values =
        Array.init 4 (fun i -> Prng.normal_tensor (Prng.fold_in (Prng.key seed) i) [| 3 |])
      in
      (* Leaf 0 is always a param; the mask picks the others. *)
      let is_param i = i = 0 || mask land (1 lsl i) <> 0 in
      List.for_all
        (fun remat ->
          let mixed =
            Array.mapi (fun i v -> if is_param i then Ad.param v else Ad.const v) values
          in
          let all = Array.map Ad.param values in
          let root_m = build_graph ~remat mixed ops
          and root_a = build_graph ~remat:false all ops in
          Ad.backward root_m;
          Ad.backward root_a;
          Int64.bits_of_float (Ad.to_float root_m)
          = Int64.bits_of_float (Ad.to_float root_a)
          && List.for_all
               (fun i -> (not (is_param i)) || grad_bits mixed.(i) = grad_bits all.(i))
               [ 0; 1; 2; 3 ])
        [ false; true ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_expression; prop_pruned_sweep_bit_identical ]

let test_grad_of_inactive_raises () =
  let p = Ad.param (Tensor.of_list1 [ 1.; 2. ]) in
  let c = Ad.const (Tensor.of_list1 [ 3.; 4. ]) in
  let derived = Ad.mul c (Ad.exp c) in
  let root = Ad.sum (Ad.mul (Ad.add p derived) (Ad.stop_grad p)) in
  Ad.backward root;
  List.iter
    (fun (name, t) ->
      Alcotest.check_raises name
        (Invalid_argument "Ad.grad: inactive node (built only from constants; use Ad.param)")
        (fun () -> ignore (Ad.grad t)))
    [ ("const", c); ("scalar", Ad.scalar 1.); ("derived", derived);
      ("stop_grad", Ad.stop_grad p) ];
  Alcotest.(check bool) "param grad read" true
    (Tensor.equal (Ad.grad p) (Tensor.of_list1 [ 1.; 2. ]))

let test_inactive_vjps_never_run () =
  (* A vjp into a constant would raise if called; the sweep must
     neither call it nor visit the constant's own parents. *)
  let c = Ad.const (Tensor.scalar 2.) in
  let poisoned =
    Ad.custom ~value:(Tensor.scalar 4.)
      ~parents:[ (c, fun _ -> failwith "vjp into a constant") ]
  in
  let p = Ad.param (Tensor.scalar 3.) in
  let root =
    Ad.custom ~value:(Tensor.scalar 12.)
      ~parents:
        [ (poisoned, fun _ -> failwith "vjp into an inactive node");
          (p, fun g -> Tensor.scale 4. g) ]
  in
  let swept0 = Ad.swept_nodes () in
  Ad.backward root;
  Alcotest.(check (float 0.)) "param grad" 4. (Tensor.to_scalar (Ad.grad p));
  Alcotest.(check int) "swept root and param only" 2 (Ad.swept_nodes () - swept0)

let suites =
  [ ( "ad",
      [ Alcotest.test_case "unary grads" `Quick test_unary_grads;
        Alcotest.test_case "binary grads" `Quick test_binary_grads;
        Alcotest.test_case "mul both sides" `Quick test_both_sides_of_mul;
        Alcotest.test_case "broadcast grads" `Quick test_broadcast_grad;
        Alcotest.test_case "matmul grads" `Quick test_matmul_grads;
        Alcotest.test_case "reductions" `Quick test_reductions;
        Alcotest.test_case "structural grads" `Quick test_structural_grads;
        Alcotest.test_case "stop_grad" `Quick test_stop_grad;
        Alcotest.test_case "magic-box identity" `Quick test_magic_box_identity;
        Alcotest.test_case "custom node" `Quick test_custom_node;
        Alcotest.test_case "shared subexpression" `Quick
          test_shared_subexpression;
        Alcotest.test_case "mlp grad check" `Quick test_mlp_grad_check;
        Alcotest.test_case "non-scalar backward" `Quick
          test_non_scalar_backward_rejected;
        Alcotest.test_case "add_list" `Quick test_add_list;
        Alcotest.test_case "grad of inactive raises" `Quick
          test_grad_of_inactive_raises;
        Alcotest.test_case "inactive vjps never run" `Quick
          test_inactive_vjps_never_run ]
      @ qcheck_cases ) ]

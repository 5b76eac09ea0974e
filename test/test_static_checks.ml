(* Section 5 ("Static Checks and Unbiasedness") reproductions.

   The paper gives two concrete failure modes of fixed-strategy PPLs:

   1. Pyro's default REPARAM assumes the joint density is differentiable
      in Gaussian samples; a program that branches on [x < k] violates
      this silently and gets biased gradients. Here we (a) compute the
      bias of that naive estimator explicitly, (b) show our runtime
      R/R-star discipline rejects the program under REPARAM, and
      (c) show the REINFORCE and MVD versions of the same program give
      unbiased gradients.

   2. Gen's default assumes primitive supports do not depend on learned
      parameters; a uniform with learned endpoints violates it. Our
      [Dist.uniform] makes the violation unrepresentable (bounds are
      plain floats), and we exhibit the bias a Gen-style estimator would
      incur. *)

let k0 = Prng.key 27182

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

(* Objective: L(theta) = E_{x ~ N(theta, 1)} [ if x < 0 then 0 else 1 ]
           = 1 - Phi(-theta) = Phi(theta).
   True gradient: phi(theta), the standard normal density. *)

let theta_v = 0.4
let phi t = Float.exp (-0.5 *. t *. t) /. Float.sqrt (2. *. Float.pi)
let true_grad = phi theta_v

let branchy_objective sample_normal =
  let open Adev.Syntax in
  let theta = Ad.param (Tensor.scalar theta_v) in
  ( theta,
    let* x = Adev.sample (sample_normal theta (Ad.scalar 1.)) in
    let xv = Gen.rigid x in
    Adev.return (Ad.scalar (if xv < 0. then 0. else 1.)) )

let mean_grad ~n build =
  let total = ref 0. in
  for i = 0 to n - 1 do
    let theta, obj = build () in
    let _, grads =
      Adev.grad ~params:[ ("theta", theta) ] obj (Prng.fold_in k0 i)
    in
    total := !total +. Tensor.to_scalar (List.assoc "theta" grads)
  done;
  !total /. float_of_int n

let test_reparam_branching_rejected () =
  (* The discipline that makes Pyro's failure unrepresentable: a REPARAM
     sample is smooth and may not be branched on. *)
  Alcotest.(check bool) "rejected" true
    (try
       let theta, obj = branchy_objective Dist.normal_reparam in
       ignore (Adev.grad ~params:[ ("theta", theta) ] obj k0);
       false
     with Value.Smoothness_error _ -> true)

let test_naive_reparam_is_biased () =
  (* What Pyro's default actually computes on this program: the pathwise
     derivative of the branch output, which is 0 almost everywhere — a
     100% biased estimate of phi(theta) =~ 0.368. We build it by hand
     (branching on the primal while keeping the pathwise graph). *)
  let naive =
    mean_grad ~n:20000 (fun () ->
        let theta = Ad.param (Tensor.scalar theta_v) in
        let open Adev.Syntax in
        ( theta,
          let* x = Adev.sample (Dist.normal_reparam theta (Ad.scalar 1.)) in
          (* Deliberately peeking at the primal: the biased engine's
             view of the program. *)
          let xv = Tensor.to_scalar (Ad.value x) in
          Adev.return
            (if xv < 0. then Ad.scale 0. x else Ad.add_scalar 1. (Ad.scale 0. x)) ))
  in
  check_close "naive pathwise gradient is 0" ~tol:1e-9 0. naive;
  Alcotest.(check bool) "which is badly biased" true
    (Float.abs (naive -. true_grad) > 0.3)

let test_reinforce_branching_unbiased () =
  let g =
    mean_grad ~n:60000 (fun () -> branchy_objective Dist.normal_reinforce)
  in
  check_close "REINFORCE unbiased through branch" ~tol:0.02 true_grad g

let test_mvd_branching_unbiased () =
  let g = mean_grad ~n:30000 (fun () -> branchy_objective Dist.normal_mvd) in
  check_close "MVD unbiased through branch" ~tol:0.02 true_grad g

(* Example 2: uniform with learned endpoints.
   L(b) = E_{x ~ U(0, b)} [x^2] = b^2 / 3; dL/db = 2b/3.
   Gen-style estimators differentiate the density at a fixed sample
   (d/db log (1/b) = -1/b), giving E[x^2] * (-1/b) + 0 = -b^2/3 * 1/b =
   ... a wrong (even wrong-signed) gradient, because the support moves
   with b. *)

let test_uniform_learned_endpoint_unrepresentable () =
  (* Our API simply cannot close a uniform over an AD parameter: bounds
     are floats. The nearest legal program fixes the bounds. This test
     documents the restriction by demonstrating the bias the forbidden
     program would have. *)
  let b = 2.0 in
  let true_gradient = 2. *. b /. 3. in
  (* The Gen-style score-function estimate with parameter-dependent
     support: (x^2) * d/db log(1/b) = -x^2 / b. *)
  let n = 40000 in
  let total = ref 0. in
  Array.iter
    (fun k ->
      let x = Prng.uniform_range k 0. b in
      total := !total +. (-.(x *. x) /. b))
    (Prng.split_many k0 n);
  let biased = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "Gen-style estimate %.3f vs true %.3f" biased true_gradient)
    true
    (Float.abs (biased -. true_gradient) > 1.);
  Alcotest.(check bool) "wrong sign, even" true (biased < 0.)

let test_uniform_bounds_can_depend_on_rigid_randomness () =
  (* Per Section 5: uniform bounds may depend on other random choices
     (e.g. a REINFORCE Gaussian with a learned mean), just not directly
     on parameters. *)
  let open Gen.Syntax in
  let prog frame =
    let mu = Store.Frame.get frame "m" in
    let* c = Gen.sample (Dist.normal_reinforce mu (Ad.scalar 1.)) "c" in
    let width = 1. +. Float.abs (Gen.rigid c) in
    let* x = Gen.sample (Dist.uniform 0. width) "x" in
    Gen.return x
  in
  let store = Store.create () in
  Store.ensure store "m" (fun () -> Tensor.scalar 0.5);
  let frame = Store.Frame.make store in
  let _, trace, logd = Gen.sample_prior (prog frame) k0 in
  Alcotest.(check bool) "runs with finite density" true (Float.is_finite logd);
  Alcotest.(check int) "two sites" 2 (Trace.size trace)

let test_relu_usable_at_own_risk () =
  (* The discussion section: ReLU gets the restrictive subgradient-0
     treatment; it is usable, with the kink's measure-zero caveat. *)
  let x = Ad.param (Tensor.of_list1 [ -1.; 2. ]) in
  let y = Ad.sum (Ad.relu x) in
  Ad.backward y;
  Alcotest.(check bool) "subgradient" true
    (Tensor.approx_equal (Ad.grad x) (Tensor.of_list1 [ 0.; 1. ]))

let suites =
  [ ( "static-checks",
      [ Alcotest.test_case "reparam branching rejected" `Quick
          test_reparam_branching_rejected;
        Alcotest.test_case "naive reparam biased" `Slow
          test_naive_reparam_is_biased;
        Alcotest.test_case "reinforce through branch" `Slow
          test_reinforce_branching_unbiased;
        Alcotest.test_case "mvd through branch" `Slow
          test_mvd_branching_unbiased;
        Alcotest.test_case "uniform learned endpoints" `Slow
          test_uniform_learned_endpoint_unrepresentable;
        Alcotest.test_case "uniform rigid bounds ok" `Quick
          test_uniform_bounds_can_depend_on_rigid_randomness;
        Alcotest.test_case "relu at own risk" `Quick test_relu_usable_at_own_risk
      ] ) ]

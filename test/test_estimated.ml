(* Statistical unbiasedness tests for the estimated-real (R-tilde)
   combinators of Section 3.3: composing estimators through the special
   operators must preserve expectations, while naive monadic
   post-processing would introduce Jensen bias (also demonstrated). *)

let k0 = Prng.key 4242

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

(* A noisy estimator of 0.3: 0.3 + N(0, 0.2). *)
let noisy_03 =
  Estimated.of_fun (fun key -> Ad.scalar (0.3 +. (0.2 *. Prng.normal key)))

(* An estimator of 1.0 from an expectation with REINFORCE inside. *)
let estimated_one =
  let open Adev.Syntax in
  Estimated.of_expectation
    (let* b = Adev.sample (Dist.flip_reinforce (Ad.scalar 0.5)) in
     Adev.return (Ad.scalar (if b then 1.5 else 0.5)))

let test_const () =
  check_close "const" ~tol:1e-12 2.5 (Estimated.mean (Estimated.const 2.5) k0)

let test_of_expectation () =
  check_close "E-estimate" ~tol:0.03 1.
    (Estimated.mean ~samples:4000 estimated_one k0)

let test_linear_ops () =
  check_close "add" ~tol:0.03 1.3
    (Estimated.mean ~samples:4000 (Estimated.add noisy_03 estimated_one) k0);
  check_close "sub" ~tol:0.03 0.7
    (Estimated.mean ~samples:4000 (Estimated.sub estimated_one noisy_03) k0);
  check_close "scale" ~tol:0.02 0.6
    (Estimated.mean ~samples:4000 (Estimated.scale 2. noisy_03) k0);
  check_close "shift" ~tol:0.02 1.3
    (Estimated.mean ~samples:4000 (Estimated.shift 1. noisy_03) k0)

let test_mul_independent () =
  (* E[XY] = E[X] E[Y] for independent estimates: 0.3 * 1.0. *)
  check_close "mul" ~tol:0.03 0.3
    (Estimated.mean ~samples:8000 (Estimated.mul noisy_03 estimated_one) k0)

let test_exp_unbiased () =
  (* exp_R-tilde of the noisy 0.3-estimator must average e^0.3, not
     E[e^X] = e^{0.3 + 0.02} (the Jensen-biased naive value). *)
  let est = Estimated.exp ~rate:3. noisy_03 in
  let m = Estimated.mean ~samples:60000 est k0 in
  check_close "unbiased exp" ~tol:0.03 (Float.exp 0.3) m;
  (* The naive (biased) estimator is measurably different. *)
  let naive =
    Estimated.of_fun (fun key ->
        Ad.exp (Estimated.run noisy_03 key))
  in
  let m_naive = Estimated.mean ~samples:60000 naive k0 in
  check_close "naive is Jensen-biased" ~tol:0.01
    (Float.exp (0.3 +. (0.2 ** 2. /. 2.)))
    m_naive;
  Alcotest.(check bool) "bias direction" true (m_naive > m)

let test_exp_of_const () =
  let est = Estimated.exp ~rate:2. (Estimated.const 1.2) in
  check_close "exp of const" ~tol:0.05 (Float.exp 1.2)
    (Estimated.mean ~samples:40000 est k0)

let test_reciprocal () =
  (* 1 / 1.25 with estimates concentrated near the anchor. *)
  let x =
    Estimated.of_fun (fun key -> Ad.scalar (1.25 +. (0.05 *. Prng.normal key)))
  in
  let est = Estimated.reciprocal_mean ~anchor:1.25 x in
  check_close "reciprocal" ~tol:0.02 0.8
    (Estimated.mean ~samples:40000 est k0)

let test_exp_gradient_unbiased () =
  (* Gradients flow through the composed estimator: for X an estimator
     of theta (REPARAM), d/dtheta E[exp_R(X)] = e^theta. *)
  let theta_v = 0.4 in
  let n = 60000 in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let theta = Ad.param (Tensor.scalar theta_v) in
    let x =
      Estimated.of_fun (fun key ->
          Ad.add theta (Ad.scalar (0.1 *. Prng.normal key)))
    in
    let est = Estimated.exp ~rate:2. x in
    let out = Estimated.run est (Prng.fold_in k0 i) in
    Ad.backward out;
    total := !total +. Tensor.to_scalar (Ad.grad theta)
  done;
  check_close "d/dtheta exp" ~tol:0.1 (Float.exp theta_v)
    (!total /. float_of_int n)

let suites =
  [ ( "estimated",
      [ Alcotest.test_case "const" `Quick test_const;
        Alcotest.test_case "of_expectation" `Slow test_of_expectation;
        Alcotest.test_case "linear ops" `Slow test_linear_ops;
        Alcotest.test_case "mul independent" `Slow test_mul_independent;
        Alcotest.test_case "exp unbiased vs Jensen" `Slow test_exp_unbiased;
        Alcotest.test_case "exp of const" `Slow test_exp_of_const;
        Alcotest.test_case "reciprocal" `Slow test_reciprocal;
        Alcotest.test_case "exp gradient" `Slow test_exp_gradient_unbiased ] )
  ]

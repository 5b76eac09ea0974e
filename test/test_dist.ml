(* Tests for primitive distributions: log-density correctness against
   closed forms, gradient checks of log-densities with respect to
   parameters, agreement between samplers and densities (moments), and
   the per-strategy data (supports, reparam samplers, MVD couplings). *)

let k0 = Prng.key 1234

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

let primal a = Tensor.to_scalar (Ad.value a)

(* Gradient-check d.log_density at value [x] with respect to a scalar
   parameter embedded by [build]. *)
let check_logd_grad name build x expected_grad =
  let theta = Ad.param (Tensor.scalar 0.8) in
  let d = build theta in
  let lp = d.Dist.log_density x in
  Ad.backward lp;
  check_close name ~tol:1e-5 expected_grad (Tensor.to_scalar (Ad.grad theta))

let test_normal_log_density () =
  let d = Dist.normal_reparam (Ad.scalar 1.) (Ad.scalar 2.) in
  let lp = primal (d.Dist.log_density (Ad.scalar 0.)) in
  (* log N(0; 1, 2) = -0.5*(1/2)^2 - log 2 - 0.5 log 2pi *)
  let expected = (-0.5 *. 0.25) -. Float.log 2. -. (0.5 *. Float.log (2. *. Float.pi)) in
  check_close "normal logpdf" ~tol:1e-12 expected lp

let test_normal_logd_grad_mu () =
  (* d/dmu log N(x; mu, 1) = x - mu; at mu = 0.8, x = 0.3: -0.5 *)
  check_logd_grad "normal dmu"
    (fun mu -> Dist.normal_reinforce mu (Ad.scalar 1.))
    (Ad.scalar 0.3) (-0.5)

let test_normal_logd_grad_sigma () =
  (* d/dsigma log N(x; 0, sigma) = x^2/sigma^3 - 1/sigma. *)
  let x = 0.3 in
  let sigma = 0.8 in
  check_logd_grad "normal dsigma"
    (fun s -> Dist.normal_reinforce (Ad.scalar 0.) s)
    (Ad.scalar x)
    ((x *. x /. (sigma ** 3.)) -. (1. /. sigma))

let test_normal_sampler_moments () =
  let d = Dist.normal_reparam (Ad.scalar 2.) (Ad.scalar 0.5) in
  let ks = Prng.split_many k0 20000 in
  let xs = Array.map (fun k -> primal (d.Dist.sample k)) ks in
  let mean = Array.fold_left ( +. ) 0. xs /. 20000. in
  check_close "normal sample mean" ~tol:0.02 2. mean

let test_normal_reparam_sampler () =
  let mu = Ad.param (Tensor.scalar 2.) and sigma = Ad.scalar 0.5 in
  let d = Dist.normal_reparam mu sigma in
  match d.Dist.reparam with
  | None -> Alcotest.fail "reparam sampler missing"
  | Some r ->
    let x = r k0 in
    Alcotest.(check bool) "reparam sample is smooth (non-leaf)" false
      (Ad.is_leaf x);
    (* Gradient of the sample wrt mu is exactly 1. *)
    Ad.backward x;
    check_close "dx/dmu" ~tol:1e-12 1. (Tensor.to_scalar (Ad.grad mu))

let test_normal_reinforce_sample_is_leaf () =
  let d = Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.) in
  Alcotest.(check bool) "reinforce sample is rigid (leaf)" true
    (Ad.is_leaf (d.Dist.sample k0))

let test_normal_mvd_couplings () =
  let mu = Ad.scalar 1. and sigma = Ad.scalar 2. in
  let d = Dist.normal_mvd mu sigma in
  match d.Dist.mvd with
  | None -> Alcotest.fail "mvd data missing"
  | Some mvd ->
    let _, couplings = mvd k0 in
    Alcotest.(check int) "two couplings (mean, scale)" 2
      (List.length couplings);
    let c_mu = List.nth couplings 0 in
    check_close "mean coupling constant" ~tol:1e-12
      (1. /. (2. *. Float.sqrt (2. *. Float.pi)))
      c_mu.Dist.weight;
    (* The mean coupling is symmetric around mu. *)
    check_close "coupling symmetry" ~tol:1e-9 2.
      (primal c_mu.Dist.plus +. primal c_mu.Dist.minus);
    let c_sigma = List.nth couplings 1 in
    check_close "scale coupling constant" ~tol:1e-12 0.5 c_sigma.Dist.weight

let test_uniform () =
  let d = Dist.uniform 2. 5. in
  check_close "uniform logpdf in support" ~tol:1e-12 (-.Float.log 3.)
    (primal (d.Dist.log_density (Ad.scalar 3.)));
  Alcotest.(check bool) "out of support" true
    (primal (d.Dist.log_density (Ad.scalar 7.)) = Float.neg_infinity);
  let xs = Array.map (fun k -> primal (d.Dist.sample k)) (Prng.split_many k0 1000) in
  Alcotest.(check bool) "samples in range" true
    (Array.for_all (fun x -> x >= 2. && x < 5.) xs)

let test_flip () =
  let p = Ad.scalar 0.3 in
  let d = Dist.flip_enum p in
  check_close "flip true" ~tol:1e-9 (Float.log 0.3)
    (primal (d.Dist.log_density true));
  check_close "flip false" ~tol:1e-9 (Float.log 0.7)
    (primal (d.Dist.log_density false));
  (match d.Dist.support with
  | Some [ true; false ] -> ()
  | _ -> Alcotest.fail "flip support");
  (* Support densities sum to 1. *)
  let total =
    List.fold_left
      (fun acc b -> acc +. Float.exp (primal (d.Dist.log_density b)))
      0.
      (Option.get d.Dist.support)
  in
  check_close "flip normalized" ~tol:1e-9 1. total

let test_flip_logd_grad () =
  (* d/dp log p = 1/p at b = true. *)
  check_logd_grad "flip dp" Dist.flip_reinforce true (1. /. 0.8)

let test_flip_mvd_coupling () =
  let d = Dist.flip_mvd (Ad.scalar 0.3) in
  match d.Dist.mvd with
  | Some mvd ->
    let _, couplings = mvd k0 in
    let c = List.hd couplings in
    Alcotest.(check bool) "plus is true" true c.Dist.plus;
    Alcotest.(check bool) "minus is false" false c.Dist.minus;
    check_close "weight" ~tol:1e-12 1. c.Dist.weight
  | None -> Alcotest.fail "mvd data missing"

let test_categorical () =
  let probs = Ad.const (Tensor.of_list1 [ 0.2; 0.3; 0.5 ]) in
  let d = Dist.categorical_enum probs in
  check_close "cat logpdf" ~tol:1e-9 (Float.log 0.3)
    (primal (d.Dist.log_density 1));
  Alcotest.(check bool) "out of range" true
    (primal (d.Dist.log_density 5) = Float.neg_infinity);
  Alcotest.(check int) "support size" 3
    (List.length (Option.get d.Dist.support))

let test_categorical_logits () =
  let logits = Ad.const (Tensor.of_list1 [ 0.; 1.; 2. ]) in
  let d = Dist.categorical_logits_enum logits in
  let z = Float.log (1. +. Float.exp 1. +. Float.exp 2.) in
  check_close "logits logpdf" ~tol:1e-9 (1. -. z)
    (primal (d.Dist.log_density 1));
  let total =
    List.fold_left
      (fun acc i -> acc +. Float.exp (primal (d.Dist.log_density i)))
      0.
      (Option.get d.Dist.support)
  in
  check_close "logits normalized" ~tol:1e-9 1. total

let test_beta_log_density () =
  (* Beta(2, 3): log pdf at 0.4 = log(12 * 0.4 * 0.6^2). *)
  let d = Dist.beta_reinforce (Ad.scalar 2.) (Ad.scalar 3.) in
  let expected = Float.log (12. *. 0.4 *. (0.6 ** 2.)) in
  check_close "beta logpdf" ~tol:1e-9 expected
    (primal (d.Dist.log_density (Ad.scalar 0.4)))

let test_gamma_log_density () =
  (* Gamma(3, 1): log pdf at 2 = 2 log 2 - 2 - log 2!. *)
  let d = Dist.gamma_reinforce (Ad.scalar 3.) in
  let expected = (2. *. Float.log 2.) -. 2. -. Float.log 2. in
  check_close "gamma logpdf" ~tol:1e-9 expected
    (primal (d.Dist.log_density (Ad.scalar 2.)))

let test_poisson_log_density () =
  (* Poisson(2): P(3) = e^-2 2^3 / 3!. *)
  let d = Dist.poisson_reinforce (Ad.scalar 2.) in
  let expected = Float.log (Float.exp (-2.) *. 8. /. 6.) in
  check_close "poisson logpdf" ~tol:1e-9 expected
    (primal (d.Dist.log_density 3))

let test_mv_normal_diag () =
  let mean = Ad.const (Tensor.of_list1 [ 0.; 1. ]) in
  let std = Ad.const (Tensor.of_list1 [ 1.; 2. ]) in
  let d = Dist.mv_normal_diag_reparam mean std in
  let x = Ad.const (Tensor.of_list1 [ 0.5; 0. ]) in
  (* Sum of two univariate log densities. *)
  let lp1 = (-0.5 *. 0.25) -. (0.5 *. Float.log (2. *. Float.pi)) in
  let lp2 = (-0.5 *. 0.25) -. Float.log 2. -. (0.5 *. Float.log (2. *. Float.pi)) in
  check_close "mv logpdf" ~tol:1e-9 (lp1 +. lp2) (primal (d.Dist.log_density x))

let test_bernoulli_vector () =
  let probs = Ad.const (Tensor.of_list1 [ 0.9; 0.1 ]) in
  let d = Dist.bernoulli_vector probs in
  let x = Ad.const (Tensor.of_list1 [ 1.; 0. ]) in
  check_close "bvec logpdf" ~tol:1e-9
    (Float.log 0.9 +. Float.log 0.9)
    (primal (d.Dist.log_density x))

let test_bernoulli_logits_matches_probs () =
  let logits = Tensor.of_list1 [ 0.7; -1.2; 0.1 ] in
  let probs = Tensor.sigmoid logits in
  let dl = Dist.bernoulli_logits_vector (Ad.const logits) in
  let dp = Dist.bernoulli_vector (Ad.const probs) in
  let x = Ad.const (Tensor.of_list1 [ 1.; 0.; 1. ]) in
  check_close "logits vs probs" ~tol:1e-9
    (primal (dp.Dist.log_density x))
    (primal (dl.Dist.log_density x))

let test_special_functions () =
  check_close "lgamma 1" ~tol:1e-10 0. (Special.lgamma 1.);
  check_close "lgamma 5" ~tol:1e-9 (Float.log 24.) (Special.lgamma 5.);
  check_close "lgamma 0.5" ~tol:1e-9
    (0.5 *. Float.log Float.pi)
    (Special.lgamma 0.5);
  (* digamma(1) = -euler_gamma. *)
  check_close "digamma 1" ~tol:1e-8 (-0.5772156649015329) (Special.digamma 1.);
  (* digamma recurrence: psi(x+1) = psi(x) + 1/x. *)
  check_close "digamma recurrence" ~tol:1e-8
    (Special.digamma 2.3 +. (1. /. 2.3))
    (Special.digamma 3.3);
  (* lgamma_ad derivative is digamma. *)
  let a = Ad.param (Tensor.scalar 2.7) in
  let l = Special.lgamma_ad a in
  Ad.backward l;
  check_close "lgamma_ad grad" ~tol:1e-8 (Special.digamma 2.7)
    (Tensor.to_scalar (Ad.grad a))

let test_value_typing () =
  Alcotest.(check bool) "bool of real raises" true
    (try
       ignore (Value.to_bool (Value.real 1.));
       false
     with Value.Type_error _ -> true);
  Alcotest.(check bool) "rigid leaf ok" true
    (Value.to_float_rigid (Value.real 2.) = 2.);
  let mu = Ad.scalar 0. in
  let smooth = Ad.add mu (Ad.scalar 1.) in
  Alcotest.(check bool) "rigid rejects smooth value" true
    (try
       ignore (Value.to_float_rigid (Value.Real smooth));
       false
     with Value.Smoothness_error _ -> true)

let test_baseline_cell () =
  let cell = Baseline.create ~decay:0.5 () in
  Alcotest.(check (float 0.)) "initial" 0. (Baseline.value cell);
  Baseline.update cell 10.;
  Alcotest.(check (float 1e-9)) "first observation" 10. (Baseline.value cell);
  Baseline.update cell 0.;
  Alcotest.(check (float 1e-9)) "ema" 5. (Baseline.value cell);
  Alcotest.(check int) "count" 2 (Baseline.observations cell)

(* Property: primitive sampler moments match the density's distribution
   for the normal family across random parameters. *)
let prop_normal_sampler_matches_density =
  QCheck.Test.make ~name:"normal sampler matches analytic moments" ~count:10
    QCheck.(pair (float_range (-3.) 3.) (float_range 0.3 2.))
    (fun (mu, sigma) ->
      let d = Dist.normal_reparam (Ad.scalar mu) (Ad.scalar sigma) in
      let ks = Prng.split_many (Prng.key 5) 4000 in
      let xs = Array.map (fun k -> primal (d.Dist.sample k)) ks in
      let mean = Array.fold_left ( +. ) 0. xs /. 4000. in
      Float.abs (mean -. mu) < 0.15)

(* Property: flip ENUM support sums to 1 for any p. *)
let prop_flip_normalized =
  QCheck.Test.make ~name:"flip support normalized" ~count:100
    QCheck.(float_range 0.01 0.99)
    (fun p ->
      let d = Dist.flip_enum (Ad.scalar p) in
      let total =
        List.fold_left
          (fun acc b -> acc +. Float.exp (primal (d.Dist.log_density b)))
          0.
          (Option.get d.Dist.support)
      in
      Float.abs (total -. 1.) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_normal_sampler_matches_density; prop_flip_normalized ]

let suites =
  [ ( "dist",
      [ Alcotest.test_case "normal log density" `Quick test_normal_log_density;
        Alcotest.test_case "normal grad mu" `Quick test_normal_logd_grad_mu;
        Alcotest.test_case "normal grad sigma" `Quick
          test_normal_logd_grad_sigma;
        Alcotest.test_case "normal sampler moments" `Slow
          test_normal_sampler_moments;
        Alcotest.test_case "normal reparam sampler" `Quick
          test_normal_reparam_sampler;
        Alcotest.test_case "reinforce sample rigid" `Quick
          test_normal_reinforce_sample_is_leaf;
        Alcotest.test_case "normal mvd couplings" `Quick
          test_normal_mvd_couplings;
        Alcotest.test_case "uniform" `Quick test_uniform;
        Alcotest.test_case "flip" `Quick test_flip;
        Alcotest.test_case "flip grad" `Quick test_flip_logd_grad;
        Alcotest.test_case "flip mvd coupling" `Quick test_flip_mvd_coupling;
        Alcotest.test_case "categorical" `Quick test_categorical;
        Alcotest.test_case "categorical logits" `Quick test_categorical_logits;
        Alcotest.test_case "beta log density" `Quick test_beta_log_density;
        Alcotest.test_case "gamma log density" `Quick test_gamma_log_density;
        Alcotest.test_case "poisson log density" `Quick
          test_poisson_log_density;
        Alcotest.test_case "mv normal diag" `Quick test_mv_normal_diag;
        Alcotest.test_case "bernoulli vector" `Quick test_bernoulli_vector;
        Alcotest.test_case "bernoulli logits" `Quick
          test_bernoulli_logits_matches_probs;
        Alcotest.test_case "special functions" `Quick test_special_functions;
        Alcotest.test_case "value typing" `Quick test_value_typing;
        Alcotest.test_case "baseline cell" `Quick test_baseline_cell ]
      @ qcheck_cases ) ]

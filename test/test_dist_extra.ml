(* Tests for the extended distribution families: closed-form densities,
   sampler moments, reparameterization gradients, and the Poisson /
   binomial discrete estimators. *)

let k0 = Prng.key 909

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

let primal a = Tensor.to_scalar (Ad.value a)

let sample_mean n d =
  let total = ref 0. in
  Array.iter
    (fun k -> total := !total +. primal (d.Dist.sample k))
    (Prng.split_many k0 n);
  !total /. float_of_int n

let sample_var n d =
  let xs = Array.map (fun k -> primal (d.Dist.sample k)) (Prng.split_many k0 n) in
  let m = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. float_of_int n

(* Numerically integrate a density over a grid; should be close to 1. *)
let integrates_to_one ?(lo = -30.) ?(hi = 30.) ?(steps = 30000) d =
  let h = (hi -. lo) /. float_of_int steps in
  let total = ref 0. in
  for i = 0 to steps - 1 do
    let x = lo +. ((float_of_int i +. 0.5) *. h) in
    total := !total +. (Float.exp (primal (d.Dist.log_density (Ad.scalar x))) *. h)
  done;
  !total

let test_laplace () =
  let d = Dist.laplace_reparam (Ad.scalar 1.) (Ad.scalar 0.5) in
  (* log f(2; 1, 0.5) = -|2-1|/0.5 - log(2*0.5) = -2. *)
  check_close "laplace logpdf" ~tol:1e-9 (-2.)
    (primal (d.Dist.log_density (Ad.scalar 2.)));
  check_close "laplace normalization" ~tol:1e-3 1. (integrates_to_one d);
  check_close "laplace mean" ~tol:0.03 1. (sample_mean 20000 d);
  (* Var = 2 scale^2 = 0.5. *)
  check_close "laplace var" ~tol:0.05 0.5 (sample_var 20000 d)

let test_laplace_reparam_grad () =
  (* d/dloc of a reparameterized sample is exactly 1. *)
  let loc = Ad.param (Tensor.scalar 1.) in
  let d = Dist.laplace_reparam loc (Ad.scalar 0.5) in
  let x = (Option.get d.Dist.reparam) k0 in
  Ad.backward x;
  check_close "dx/dloc" ~tol:1e-12 1. (Tensor.to_scalar (Ad.grad loc))

let test_laplace_density_grad () =
  (* d/dx log f = -sign(x - loc)/scale away from the kink. *)
  let d = Dist.laplace_reparam (Ad.scalar 0.) (Ad.scalar 0.5) in
  let x = Ad.param (Tensor.scalar 2.) in
  let lp = d.Dist.log_density x in
  Ad.backward lp;
  check_close "right slope" ~tol:1e-9 (-2.) (Tensor.to_scalar (Ad.grad x));
  let y = Ad.param (Tensor.scalar (-2.)) in
  let lp2 = d.Dist.log_density y in
  Ad.backward lp2;
  check_close "left slope" ~tol:1e-9 2. (Tensor.to_scalar (Ad.grad y))

let test_logistic () =
  let d = Dist.logistic_reparam (Ad.scalar 0.) (Ad.scalar 1.) in
  (* log f(0; 0, 1) = log(1/4). *)
  check_close "logistic logpdf at 0" ~tol:1e-9 (Float.log 0.25)
    (primal (d.Dist.log_density (Ad.scalar 0.)));
  check_close "logistic normalization" ~tol:1e-3 1. (integrates_to_one d);
  check_close "logistic mean" ~tol:0.05 0. (sample_mean 20000 d);
  (* Var = pi^2/3. *)
  check_close "logistic var" ~tol:0.15
    (Float.pi ** 2. /. 3.)
    (sample_var 20000 d)

let test_lognormal () =
  let mu = 0.2 and sigma = 0.4 in
  let d = Dist.lognormal_reparam (Ad.scalar mu) (Ad.scalar sigma) in
  check_close "lognormal normalization" ~tol:1e-3 1.
    (integrates_to_one ~lo:1e-6 ~hi:40. d);
  check_close "lognormal mean" ~tol:0.03
    (Float.exp (mu +. (sigma ** 2. /. 2.)))
    (sample_mean 40000 d);
  (* Reparam gradient of E[x] wrt mu is E[x] itself. *)
  let n = 8000 in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let mu_l = Ad.param (Tensor.scalar mu) in
    let d = Dist.lognormal_reparam mu_l (Ad.scalar sigma) in
    let x = (Option.get d.Dist.reparam) (Prng.fold_in k0 i) in
    Ad.backward x;
    total := !total +. Tensor.to_scalar (Ad.grad mu_l)
  done;
  check_close "d E[x] / dmu" ~tol:0.05
    (Float.exp (mu +. (sigma ** 2. /. 2.)))
    (!total /. float_of_int n)

let test_exponential () =
  let rate = 1.3 in
  let d = Dist.exponential_reparam (Ad.scalar rate) in
  check_close "exp logpdf" ~tol:1e-9
    (Float.log rate -. (rate *. 2.))
    (primal (d.Dist.log_density (Ad.scalar 2.)));
  check_close "exp mean" ~tol:0.02 (1. /. rate) (sample_mean 20000 d)

let test_student_t () =
  (* df = 1 is Cauchy. *)
  let d1 = Dist.student_t_reinforce (Ad.scalar 1.) in
  check_close "cauchy logpdf at 0" ~tol:1e-8
    (-.Float.log Float.pi)
    (primal (d1.Dist.log_density (Ad.scalar 0.)));
  check_close "cauchy logpdf at 1" ~tol:1e-8
    (-.Float.log (2. *. Float.pi))
    (primal (d1.Dist.log_density (Ad.scalar 1.)));
  let d5 = Dist.student_t_reinforce (Ad.scalar 5.) in
  check_close "t5 normalization" ~tol:1e-2 1. (integrates_to_one ~lo:(-200.) ~hi:200. ~steps:200000 d5);
  (* Var = df / (df - 2) for df = 5. *)
  check_close "t5 var" ~tol:0.2 (5. /. 3.) (sample_var 40000 d5)

let test_scaled_beta () =
  let d = Dist.scaled_beta_reinforce ~lo:0. ~hi:4. (Ad.scalar 2.) (Ad.scalar 2.) in
  check_close "scaled beta normalization" ~tol:1e-3 1.
    (integrates_to_one ~lo:1e-6 ~hi:4. d);
  (* Mean of Beta(2,2) scaled to [0,4] is 2. *)
  check_close "scaled beta mean" ~tol:0.03 2. (sample_mean 20000 d);
  let xs = Array.map (fun k -> primal (d.Dist.sample k)) (Prng.split_many k0 500) in
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun x -> x >= 0. && x <= 4.) xs)

let test_poisson_mvd_exact_linear () =
  (* f(n) = n: the coupling gives exactly f(n+1) - f(n) = 1 per sample,
     so d/drate E[N] = 1 with zero variance. *)
  let rate = Ad.param (Tensor.scalar 2.3) in
  let open Adev.Syntax in
  let obj =
    let* n = Adev.sample (Dist.poisson_mvd rate) in
    Adev.return (Ad.scalar (float_of_int n))
  in
  let _, grads = Adev.grad ~params:[ ("rate", rate) ] obj k0 in
  check_close "poisson mvd linear" ~tol:1e-9 1.
    (Tensor.to_scalar (List.assoc "rate" grads))

let test_poisson_mvd_quadratic () =
  (* E[N^2] = rate^2 + rate; d/drate = 2 rate + 1. *)
  let rate_v = 1.7 in
  let n = 20000 in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let rate = Ad.param (Tensor.scalar rate_v) in
    let open Adev.Syntax in
    let obj =
      let* m = Adev.sample (Dist.poisson_mvd rate) in
      Adev.return (Ad.scalar (float_of_int (m * m)))
    in
    let _, grads =
      Adev.grad ~params:[ ("rate", rate) ] obj (Prng.fold_in k0 i)
    in
    total := !total +. Tensor.to_scalar (List.assoc "rate" grads)
  done;
  check_close "poisson mvd quadratic" ~tol:0.1
    ((2. *. rate_v) +. 1.)
    (!total /. float_of_int n)

let test_geometric () =
  let p = 0.3 in
  let d = Dist.geometric_reinforce (Ad.scalar p) in
  (* P(2) = (1-p)^2 p. *)
  check_close "geometric logpdf" ~tol:1e-9
    ((2. *. Float.log 0.7) +. Float.log 0.3)
    (primal (d.Dist.log_density 2));
  let total = ref 0. in
  Array.iter
    (fun k -> total := !total +. float_of_int (d.Dist.sample k))
    (Prng.split_many k0 20000);
  check_close "geometric mean" ~tol:0.1 ((1. -. p) /. p) (!total /. 20000.)

let test_binomial () =
  let n = 7 and p = 0.35 in
  let d = Dist.binomial_enum n (Ad.scalar p) in
  let total =
    List.fold_left
      (fun acc k -> acc +. Float.exp (primal (d.Dist.log_density k)))
      0.
      (Option.get d.Dist.support)
  in
  check_close "binomial normalized" ~tol:1e-9 1. total;
  let total_s = ref 0. in
  Array.iter
    (fun k ->
      total_s := !total_s +. float_of_int ((Dist.binomial_reinforce n (Ad.scalar p)).Dist.sample k))
    (Prng.split_many k0 20000);
  check_close "binomial mean" ~tol:0.1
    (float_of_int n *. p)
    (!total_s /. 20000.)

let test_binomial_enum_gradient () =
  (* d/dp E[K] = n, exactly under enumeration. *)
  let n = 5 in
  let p = Ad.param (Tensor.scalar 0.35) in
  let open Adev.Syntax in
  let obj =
    let* x = Adev.sample (Dist.binomial_enum n p) in
    Adev.return (Ad.scalar (float_of_int x))
  in
  let v, grads = Adev.grad ~params:[ ("p", p) ] obj k0 in
  check_close "binomial enum mean" ~tol:1e-9 (5. *. 0.35) v;
  check_close "binomial enum grad" ~tol:1e-7 5.
    (Tensor.to_scalar (List.assoc "p" grads))

let test_discrete_uniform () =
  let d = Dist.discrete_uniform_enum 6 in
  check_close "du logpdf" ~tol:1e-12 (-.Float.log 6.)
    (primal (d.Dist.log_density 3));
  Alcotest.(check bool) "out of range" true
    (primal (d.Dist.log_density 6) = Float.neg_infinity);
  Alcotest.(check int) "support" 6 (List.length (Option.get d.Dist.support))

let test_new_dists_in_gen_programs () =
  (* The extended primitives compose with sim/density unchanged. *)
  let open Gen.Syntax in
  let prog =
    let* a = Gen.sample (Dist.laplace_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "a" in
    let* _ = Gen.sample (Dist.poisson_mvd (Ad.scalar 2.)) "n" in
    let* _ = Gen.sample (Dist.discrete_uniform_enum 4) "i" in
    Gen.return a
  in
  let _, trace, logd = Gen.sample_prior prog k0 in
  Alcotest.(check int) "three sites" 3 (Trace.size trace);
  Alcotest.(check bool) "finite density" true (Float.is_finite logd)

(* Property: every primitive's log density is finite at in-support
   samples drawn from the primitive itself — the contract the Guard
   anomaly detector relies on (a clean model/guide pair can only go
   non-finite through estimator variance, not through the primitives'
   own densities). *)

let finite_logpdf_cases (seed, (a, b)) =
  (* a in (0.2, 5), b in (0.2, 5): generic positive shape/scale/rate
     material; derived quantities below keep every parameter in its
     legal range. *)
  let k = Prng.key seed in
  let p = a /. (a +. b) (* in (0, 1) *) in
  let n = 1 + (seed mod 9) in
  let probs =
    Ad.const (Tensor.of_list1 [ a; b; a +. b ]) (* unnormalized, positive *)
  in
  let logits = Ad.const (Tensor.of_list1 [ a; -.b; b -. a ]) in
  let vec_mean = Ad.const (Tensor.of_list1 [ a; -.b ]) in
  let vec_std = Ad.const (Tensor.of_list1 [ b; a ]) in
  let vec_p = Ad.const (Tensor.of_list1 [ p; 1. -. p ]) in
  let scalar x = Ad.scalar x in
  let check : type a. string -> a Dist.t -> unit =
   fun name d ->
    let x = d.Dist.sample k in
    let lp = primal (d.Dist.log_density x) in
    if not (Float.is_finite lp) then
      QCheck.Test.fail_reportf
        "%s: log density %g not finite at its own sample (seed %d, a=%g, b=%g)"
        name lp seed a b
  in
  check "normal_reparam" (Dist.normal_reparam (scalar a) (scalar b));
  check "normal_reinforce" (Dist.normal_reinforce (scalar a) (scalar b));
  check "normal_mvd" (Dist.normal_mvd (scalar a) (scalar b));
  check "uniform" (Dist.uniform (-.a) b);
  check "beta_reinforce" (Dist.beta_reinforce (scalar a) (scalar b));
  check "gamma_reinforce" (Dist.gamma_reinforce (scalar a));
  check "laplace_reparam" (Dist.laplace_reparam (scalar a) (scalar b));
  check "logistic_reparam" (Dist.logistic_reparam (scalar a) (scalar b));
  check "lognormal_reparam" (Dist.lognormal_reparam (scalar (a -. b)) (scalar b));
  check "exponential_reparam" (Dist.exponential_reparam (scalar a));
  check "student_t_reinforce" (Dist.student_t_reinforce (scalar (a +. 0.5)));
  check "scaled_beta_reinforce"
    (Dist.scaled_beta_reinforce ~lo:(-.a) ~hi:b (scalar a) (scalar b));
  check "flip_enum" (Dist.flip_enum (scalar p));
  check "flip_reinforce" (Dist.flip_reinforce (scalar p));
  check "flip_mvd" (Dist.flip_mvd (scalar p));
  check "categorical_enum" (Dist.categorical_enum probs);
  check "categorical_reinforce" (Dist.categorical_reinforce probs);
  check "categorical_logits_enum" (Dist.categorical_logits_enum logits);
  check "categorical_logits_reinforce"
    (Dist.categorical_logits_reinforce logits);
  check "categorical_logits_mvd" (Dist.categorical_logits_mvd logits);
  check "poisson_reinforce" (Dist.poisson_reinforce (scalar a));
  check "poisson_mvd" (Dist.poisson_mvd (scalar a));
  check "geometric_reinforce" (Dist.geometric_reinforce (scalar p));
  check "binomial_reinforce" (Dist.binomial_reinforce n (scalar p));
  check "binomial_enum" (Dist.binomial_enum n (scalar p));
  check "discrete_uniform_enum" (Dist.discrete_uniform_enum n);
  check "mv_normal_diag_reparam" (Dist.mv_normal_diag_reparam vec_mean vec_std);
  check "mv_normal_diag_reinforce"
    (Dist.mv_normal_diag_reinforce vec_mean vec_std);
  check "bernoulli_vector" (Dist.bernoulli_vector vec_p);
  check "bernoulli_logits_vector" (Dist.bernoulli_logits_vector logits);
  true

let prop_finite_logpdf_on_own_samples =
  QCheck.Test.make ~name:"all primitives: finite log density at own samples"
    ~count:150
    QCheck.(pair small_int (pair (float_range 0.2 5.) (float_range 0.2 5.)))
    finite_logpdf_cases

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_finite_logpdf_on_own_samples ]

let suites =
  [ ( "dist-extra",
      [ Alcotest.test_case "laplace" `Slow test_laplace;
        Alcotest.test_case "laplace reparam grad" `Quick
          test_laplace_reparam_grad;
        Alcotest.test_case "laplace density grad" `Quick
          test_laplace_density_grad;
        Alcotest.test_case "logistic" `Slow test_logistic;
        Alcotest.test_case "lognormal" `Slow test_lognormal;
        Alcotest.test_case "exponential" `Slow test_exponential;
        Alcotest.test_case "student t" `Slow test_student_t;
        Alcotest.test_case "scaled beta" `Slow test_scaled_beta;
        Alcotest.test_case "poisson mvd linear" `Quick
          test_poisson_mvd_exact_linear;
        Alcotest.test_case "poisson mvd quadratic" `Slow
          test_poisson_mvd_quadratic;
        Alcotest.test_case "geometric" `Slow test_geometric;
        Alcotest.test_case "binomial" `Slow test_binomial;
        Alcotest.test_case "binomial enum gradient" `Quick
          test_binomial_enum_gradient;
        Alcotest.test_case "discrete uniform" `Quick test_discrete_uniform;
        Alcotest.test_case "compose in gen" `Quick
          test_new_dists_in_gen_programs ]
      @ qcheck_cases ) ]

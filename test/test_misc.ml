(* Edge-case and API-surface coverage: the small behaviours the larger
   suites route around — error paths, degenerate inputs, monadic laws,
   and numerical guards. *)

let k0 = Prng.key 13

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

let primal a = Tensor.to_scalar (Ad.value a)

(* Adev monad laws (observationally, through expectation). *)

let expect m = Adev.estimate ~samples:1 m k0

let test_adev_monad_laws () =
  let f x = Adev.return (Ad.scale 2. x) in
  let m = Adev.sample (Dist.normal_reparam (Ad.scalar 1.) (Ad.scalar 0.5)) in
  (* Left identity. *)
  check_close "left identity" ~tol:1e-12
    (expect (Adev.bind (Adev.return (Ad.scalar 3.)) f))
    (expect (f (Ad.scalar 3.)));
  (* Right identity: same key path means identical samples. *)
  check_close "right identity" ~tol:1e-9
    (expect (Adev.bind m Adev.return) +. 0.)
    (expect (Adev.bind m Adev.return));
  (* Map = bind-return. *)
  check_close "map" ~tol:1e-12
    (expect (Adev.map (Ad.scale 3.) (Adev.return (Ad.scalar 2.))))
    6.

let test_adev_replicate () =
  let open Adev.Syntax in
  let m =
    let* xs = Adev.replicate 5 (Adev.return (Ad.scalar 1.)) in
    Adev.return (Ad.add_list xs)
  in
  check_close "replicate collects" ~tol:1e-12 5. (expect m);
  let empty =
    let* xs = Adev.replicate 0 (Adev.return (Ad.scalar 1.)) in
    Adev.return (Ad.add_list xs)
  in
  check_close "replicate 0" ~tol:1e-12 0. (expect empty)

let test_adev_invalid_args () =
  Alcotest.(check bool) "expectation_mean 0 samples" true
    (try
       ignore (Adev.expectation_mean ~samples:0 (Adev.return (Ad.scalar 1.)) k0);
       false
     with Invalid_argument _ -> true);
  (* ENUM without support. *)
  let d = Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.) in
  let bad = { d with Dist.strategy = Dist.Enum } in
  Alcotest.(check bool) "enum without support" true
    (try
       ignore (expect (Adev.map (fun x -> x) (Adev.sample bad)));
       false
     with Invalid_argument _ -> true);
  (* MVD without couplings. *)
  let bad2 = { d with Dist.strategy = Dist.Mvd } in
  Alcotest.(check bool) "mvd without couplings" true
    (try
       ignore (expect (Adev.map (fun x -> x) (Adev.sample bad2)));
       false
     with Invalid_argument _ -> true)

let test_score_log_matches_score () =
  let open Adev.Syntax in
  let with_score =
    let* () = Adev.score (Ad.scalar 0.3) in
    Adev.return (Ad.scalar 2.)
  in
  let with_score_log =
    let* () = Adev.score_log (Ad.scalar (Float.log 0.3)) in
    Adev.return (Ad.scalar 2.)
  in
  check_close "score vs score_log" ~tol:1e-12 (expect with_score)
    (expect with_score_log)

(* Gen monad laws via sample_prior. *)

let test_gen_monad_laws () =
  let open Gen.Syntax in
  let d = Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.) in
  let m = Gen.sample d "x" in
  let f x = Gen.return (primal x *. 2.) in
  let run p =
    let v, _, _ = Gen.sample_prior p k0 in
    v
  in
  let direct = run (Gen.bind m f) in
  (* Left identity on a deterministic program. *)
  check_close "left identity" ~tol:1e-12
    (run (Gen.bind (Gen.return 3.) (fun v -> Gen.return (v *. 2.))))
    6.;
  (* let+ sugar agrees with map. *)
  let sugared =
    run
      (let+ x = m in
       primal x *. 2.)
  in
  check_close "let+ = map" ~tol:1e-9 direct sugared

let test_gen_importance_invalid () =
  Alcotest.(check bool) "0 particles rejected" true
    (try
       ignore (Gen.importance ~particles:0 (fun _ -> Gen.Packed (Gen.return ())));
       false
     with Invalid_argument _ -> true)

let test_marginal_missing_keep_address () =
  let prog =
    Gen.marginal ~keep:[ "nope" ]
      (Gen.sample (Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.)) "x")
      (Gen.importance_prior (Gen.Packed (Gen.return ())))
  in
  Alcotest.(check bool) "missing kept address rejected" true
    (try
       ignore (Gen.sample_prior prog k0);
       false
     with Invalid_argument _ -> true)

(* Optimizer edges. *)

let test_optim_reset () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 0.) ;
  let opt = Optim.adam ~lr:0.1 () in
  Optim.step opt Optim.Ascend store [ ("x", Tensor.scalar 1.) ];
  let after_one = Tensor.to_scalar (Store.tensor store "x") in
  Optim.reset opt;
  Store.set store "x" (Tensor.scalar 0.);
  Optim.step opt Optim.Ascend store [ ("x", Tensor.scalar 1.) ];
  check_close "reset restarts moments" ~tol:1e-12 after_one
    (Tensor.to_scalar (Store.tensor store "x"))

(* AD edges. *)

let test_ad_deep_chain () =
  let x = Ad.param (Tensor.scalar 1.0001) in
  let y = ref x in
  for _ = 1 to 2000 do
    y := Ad.scale 1.0 (Ad.add_scalar 0. !y)
  done;
  Ad.backward !y;
  check_close "deep chain gradient" ~tol:1e-9 1.
    (Tensor.to_scalar (Ad.grad x))

let test_ad_wide_fanout () =
  let x = Ad.param (Tensor.scalar 2.) in
  let terms = List.init 500 (fun _ -> x) in
  let y = Ad.add_list terms in
  Ad.backward y;
  check_close "fanout gradient" ~tol:1e-9 500.
    (Tensor.to_scalar (Ad.grad x))

let test_ad_grad_before_backward_is_zero () =
  let x = Ad.param (Tensor.of_list1 [ 1.; 2. ]) in
  Alcotest.(check bool) "zero before backward" true
    (Tensor.approx_equal (Ad.grad x) (Tensor.zeros [| 2 |]))

let test_log_stable_guards () =
  (* flip at p = 0 or 1: log density finite sign behaviour. *)
  let d0 = Dist.flip_enum (Ad.scalar 0.) in
  let lp = primal (d0.Dist.log_density true) in
  Alcotest.(check bool) "log 0 clamped, very negative" true
    (lp < -20. && Float.is_finite lp);
  let d1 = Dist.flip_enum (Ad.scalar 1.) in
  check_close "log 1" ~tol:1e-9 0. (primal (d1.Dist.log_density true))

let test_uniform_invalid_bounds () =
  Alcotest.(check bool) "hi <= lo rejected" true
    (try
       ignore (Dist.uniform 2. 1.);
       false
     with Invalid_argument _ -> true)

let test_forward_dual_arithmetic () =
  let open Forward in
  let a = dual 2. 1. in
  let b = constant 3. in
  check_close "add" ~tol:1e-12 1. (add a b).dv;
  check_close "mul" ~tol:1e-12 3. (mul a b).dv;
  check_close "div" ~tol:1e-12 (1. /. 3.) (div a b).dv;
  check_close "neg" ~tol:1e-12 (-1.) (neg a).dv;
  check_close "exp" ~tol:1e-12 (Float.exp 2.) (exp a).dv;
  check_close "log" ~tol:1e-12 0.5 (log a).dv;
  check_close "sin" ~tol:1e-12 (Float.cos 2.) (sin_d a).dv;
  check_close "cos" ~tol:1e-12 (-.Float.sin 2.) (cos_d a).dv

let test_training_survives_degenerate_estimates () =
  (* Failure injection: a guide whose trace sometimes misses the model's
     support produces -inf objective samples; the non-finite-gradient
     guard must keep the parameters finite and training must still make
     progress on the finite samples. *)
  let model =
    let open Gen.Syntax in
    let* x = Gen.sample (Dist.uniform 0. 1.) "x" in
    let* () =
      Gen.observe (Dist.normal_reparam x (Ad.scalar 0.3)) (Ad.scalar 0.6)
    in
    Gen.return ()
  in
  let guide frame =
    (* A normal guide over a uniform-support model: samples outside
       [0, 1] hit density -inf. *)
    let mu = Store.Frame.get frame "fi.mu" in
    let open Gen.Syntax in
    let* _ = Gen.sample (Dist.normal_reinforce mu (Ad.scalar 0.3)) "x" in
    Gen.return ()
  in
  let store = Store.create () in
  Store.ensure store "fi.mu" (fun () -> Tensor.scalar 0.5);
  let optim = Optim.adam ~lr:0.02 () in
  let reports =
    Train.fit ~store ~optim ~steps:300
      ~objective:(fun frame _ -> Objectives.elbo ~model ~guide:(guide frame))
      k0
  in
  let mu = Tensor.to_scalar (Store.tensor store "fi.mu") in
  Alcotest.(check bool) "parameter stays finite" true (Float.is_finite mu);
  (* The censored objective is not the true one, so we only require the
     parameter to stay in a bounded region, not to converge. *)
  Alcotest.(check bool) "parameter stays bounded" true (Float.abs mu < 5.);
  (* Some estimates were degenerate (the -inf density poisons the
     score-function surrogate into NaN), but not all. *)
  let degenerate =
    List.length
      (List.filter
         (fun r -> not (Float.is_finite r.Train.objective))
         reports)
  in
  Alcotest.(check bool)
    (Printf.sprintf "some (%d) but not all estimates degenerate" degenerate)
    true
    (degenerate > 0 && degenerate < 300)

let test_train_on_step_callback () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 0.);
  let seen = ref 0 in
  let (_ : Train.report list) =
    Train.fit ~store ~optim:(Optim.sgd ~lr:0.01) ~steps:7
      ~on_step:(fun r ->
        incr seen;
        if r.Train.step < 0 || r.Train.step > 6 then
          Alcotest.fail "step out of range")
      ~objective:(fun frame _ ->
        Adev.return (Ad.neg (Ad.mul (Store.Frame.get frame "x") (Store.Frame.get frame "x"))))
      k0
  in
  Alcotest.(check int) "callback per step" 7 !seen

let suites =
  [ ( "misc",
      [ Alcotest.test_case "adev monad laws" `Quick test_adev_monad_laws;
        Alcotest.test_case "adev replicate" `Quick test_adev_replicate;
        Alcotest.test_case "adev invalid args" `Quick test_adev_invalid_args;
        Alcotest.test_case "score_log = score.exp" `Quick
          test_score_log_matches_score;
        Alcotest.test_case "gen monad laws" `Quick test_gen_monad_laws;
        Alcotest.test_case "importance invalid" `Quick
          test_gen_importance_invalid;
        Alcotest.test_case "marginal missing keep" `Quick
          test_marginal_missing_keep_address;
        Alcotest.test_case "optim reset" `Quick test_optim_reset;
        Alcotest.test_case "ad deep chain" `Quick test_ad_deep_chain;
        Alcotest.test_case "ad wide fanout" `Quick test_ad_wide_fanout;
        Alcotest.test_case "grad before backward" `Quick
          test_ad_grad_before_backward_is_zero;
        Alcotest.test_case "log_stable guards" `Quick test_log_stable_guards;
        Alcotest.test_case "uniform invalid bounds" `Quick
          test_uniform_invalid_bounds;
        Alcotest.test_case "forward dual arithmetic" `Quick
          test_forward_dual_arithmetic;
        Alcotest.test_case "degenerate-estimate injection" `Quick
          test_training_survives_degenerate_estimates;
        Alcotest.test_case "train on_step" `Quick test_train_on_step_callback
      ] ) ]

(* Tests for the comparator systems: the hand-coded VAE estimator must
   agree with the automated one, and the monolithic SVI engine must be
   correct on its supported menu and refuse everything else. *)

let k0 = Prng.key 808

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

(* Hand-coded VAE *)

let test_vae_hand_agrees () =
  let store = Store.create () in
  Vae.register store k0;
  let hand, automated = Vae_hand.agrees_with_automated store ~batch:16 k0 in
  check_close "same ELBO in expectation" ~tol:(0.02 *. Float.abs hand) hand
    automated

let test_vae_hand_gradients_agree () =
  (* Expected gradients of both estimators agree parameter-by-parameter
     (averaged over noise draws). *)
  let store = Store.create () in
  Vae.register store k0;
  let images, _ = Data.digit_batch k0 4 in
  let samples = 300 in
  let grad_of run =
    let acc = Hashtbl.create 16 in
    for i = 0 to samples - 1 do
      let frame = Store.Frame.make store in
      let s = run frame (Prng.fold_in k0 i) in
      Ad.backward s;
      List.iter
        (fun (name, g) ->
          let prev =
            Option.value ~default:(Tensor.zeros (Tensor.shape g))
              (Hashtbl.find_opt acc name)
          in
          Hashtbl.replace acc name (Tensor.add prev g))
        (Store.Frame.grads frame)
    done;
    acc
  in
  let hand = grad_of (fun frame key -> Vae_hand.elbo_surrogate frame images key) in
  let auto =
    grad_of (fun frame key ->
        Adev.expectation (Vae.elbo_per_datum frame images) key)
  in
  Hashtbl.iter
    (fun name g_hand ->
      match Hashtbl.find_opt auto name with
      | None -> Alcotest.failf "parameter %s missing from automated" name
      | Some g_auto ->
        let scale =
          Float.max 1. (Tensor.max_elt (Tensor.map Float.abs g_hand))
        in
        let diff =
          Tensor.max_elt
            (Tensor.map Float.abs (Tensor.sub g_hand g_auto))
        in
        if diff /. scale > 0.2 then
          Alcotest.failf "gradient mismatch at %s: rel diff %.3f" name
            (diff /. scale))
    hand

(* Monolithic SVI: a discrete model with closed-form ELBO gradient.
   model: b ~ flip(0.5); observe flip(if b then 0.9 else 0.2) true.
   guide: b ~ flip(theta).
   ELBO(theta) = theta (log .5 + log .9 - log theta)
              + (1-theta) (log .5 + log .2 - log (1-theta)). *)

let toy_model =
  let open Gen.Syntax in
  let* b = Gen.sample (Dist.flip_reinforce (Ad.scalar 0.5)) "b" in
  Gen.observe
    (Dist.flip_reinforce (Ad.scalar (if b then 0.9 else 0.2)))
    true

let toy_guide theta = Gen.sample (Dist.flip_reinforce theta) "b"
let toy_guide_enum theta = Gen.sample (Dist.flip_enum theta) "b"

let toy_elbo theta =
  (theta *. (Float.log 0.5 +. Float.log 0.9 -. Float.log theta))
  +. ((1. -. theta)
     *. (Float.log 0.5 +. Float.log 0.2 -. Float.log (1. -. theta)))

let toy_elbo_grad theta =
  Float.log 0.9 -. Float.log 0.2 -. Float.log theta
  +. Float.log (1. -. theta)

let test_svi_enum_exact () =
  let theta = 0.4 in
  let leaf = Ad.param (Tensor.scalar theta) in
  let s =
    Svi.elbo_surrogate ~model:toy_model ~guide:(toy_guide_enum leaf)
      Svi.Enum_discrete k0
  in
  check_close "enum value" ~tol:1e-9 (toy_elbo theta) (Ad.to_float s);
  Ad.backward s;
  check_close "enum gradient" ~tol:1e-9 (toy_elbo_grad theta)
    (Tensor.to_scalar (Ad.grad leaf))

let test_svi_reinforce_unbiased () =
  let theta = 0.4 in
  let n = 40000 in
  let total_v = ref 0. and total_g = ref 0. in
  for i = 0 to n - 1 do
    let leaf = Ad.param (Tensor.scalar theta) in
    let s =
      Svi.elbo_surrogate ~model:toy_model ~guide:(toy_guide leaf) Svi.Reinforce
        (Prng.fold_in k0 i)
    in
    Ad.backward s;
    total_v := !total_v +. Ad.to_float s;
    total_g := !total_g +. Tensor.to_scalar (Ad.grad leaf)
  done;
  let n = float_of_int n in
  check_close "reinforce value" ~tol:0.02 (toy_elbo theta) (!total_v /. n);
  check_close "reinforce gradient" ~tol:0.05 (toy_elbo_grad theta)
    (!total_g /. n)

let test_svi_baselines_unbiased () =
  let theta = 0.4 in
  let n = 40000 in
  let total_g = ref 0. in
  for i = 0 to n - 1 do
    let leaf = Ad.param (Tensor.scalar theta) in
    let s =
      Svi.elbo_surrogate ~model:toy_model ~guide:(toy_guide leaf)
        Svi.Reinforce_baselines (Prng.fold_in k0 i)
    in
    Ad.backward s;
    total_g := !total_g +. Tensor.to_scalar (Ad.grad leaf)
  done;
  check_close "baseline gradient" ~tol:0.05 (toy_elbo_grad theta)
    (!total_g /. float_of_int n)

let test_svi_reparam_pathwise () =
  (* Continuous reparameterizable sites use pathwise gradients: on the
     conjugate Gaussian model the gradient matches the closed form.
     ELBO(mu) with fixed std 1: E[log p(x, y) - log q(x)],
     d/dmu = y - 2 mu for y observed under N(x,1), prior N(0,1). *)
  let y = 1.4 and mu = 0.3 in
  let model =
    let open Gen.Syntax in
    let* x = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x" in
    Gen.observe (Dist.normal_reparam x (Ad.scalar 1.)) (Ad.scalar y)
  in
  let n = 20000 in
  let total_g = ref 0. in
  for i = 0 to n - 1 do
    let leaf = Ad.param (Tensor.scalar mu) in
    let guide = Gen.sample (Dist.normal_reparam leaf (Ad.scalar 1.)) "x" in
    let s = Svi.elbo_surrogate ~model ~guide Svi.Reinforce (Prng.fold_in k0 i) in
    Ad.backward s;
    total_g := !total_g +. Tensor.to_scalar (Ad.grad leaf)
  done;
  check_close "pathwise gradient" ~tol:0.05
    (y -. (2. *. mu))
    (!total_g /. float_of_int n)

let test_svi_unsupported_marginal () =
  let guide =
    Gen.marginal ~keep:[ "x" ]
      (Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x")
      (Gen.importance_prior
         (Gen.Packed (Gen.return ())))
  in
  Alcotest.(check bool) "marginal unsupported" true
    (try
       ignore (Svi.elbo_surrogate ~model:toy_model ~guide Svi.Reinforce k0);
       false
     with Svi.Unsupported _ -> true)

let test_svi_unsupported_iwelbo_enum () =
  Alcotest.(check bool) "iwelbo+enum unsupported" true
    (try
       ignore
         (Svi.iwelbo_surrogate ~particles:2 ~model:toy_model
            ~guide:(toy_guide_enum (Ad.scalar 0.4))
            Svi.Enum_discrete k0);
       false
     with Svi.Unsupported _ -> true);
  Alcotest.(check bool) "menu" false (Svi.supports ~objective:`Iwelbo Svi.Enum_discrete);
  Alcotest.(check bool) "menu elbo" true (Svi.supports ~objective:`Elbo Svi.Enum_discrete)

let test_svi_iwelbo_reinforce_runs () =
  let leaf = Ad.param (Tensor.scalar 0.4) in
  let s =
    Svi.iwelbo_surrogate ~particles:3 ~model:toy_model ~guide:(toy_guide leaf)
      Svi.Reinforce k0
  in
  Ad.backward s;
  Alcotest.(check bool) "finite" true
    (Float.is_finite (Ad.to_float s)
    && Tensor.all_finite (Ad.grad leaf))

let test_svi_iwelbo_matches_modular () =
  (* The monolithic IWELBO estimator and the modular one are different
     constructions of the same objective: their estimates agree in
     expectation. *)
  let theta = 0.4 in
  let n = 8000 in
  let mono = ref 0. and modular = ref 0. in
  for i = 0 to n - 1 do
    let leaf = Ad.scalar theta in
    let s =
      Svi.iwelbo_surrogate ~particles:3 ~model:toy_model
        ~guide:(toy_guide leaf) Svi.Reinforce (Prng.fold_in k0 i)
    in
    mono := !mono +. Ad.to_float s;
    modular :=
      !modular
      +. Adev.estimate
           (Objectives.iwelbo ~particles:3 ~model:toy_model
              ~guide:(toy_guide (Ad.scalar theta)) ())
           (Prng.fold_in (Prng.key 55) i)
  done;
  let nf = float_of_int n in
  check_close "same IWELBO objective" ~tol:0.02 (!mono /. nf) (!modular /. nf)

let test_grid_baseline_menu () =
  (* Wire the monolithic engine into the Table 3 probe: per-site
     strategy mixing and MVD must come out unsupported; the fixed menu
     must come out supported. *)
  let probe ~model ~guide ~objective ~pres ~pos key =
    let estimator =
      match (pres, pos) with
      | Air.RE, Air.RE -> Svi.Reinforce
      | Air.RE_BL, Air.RE_BL -> Svi.Reinforce_baselines
      | Air.EN, Air.EN -> Svi.Enum_discrete
      | Air.MV, _ | _, Air.MV ->
        raise (Svi.Unsupported "no measure-valued estimator in the menu")
      | _ -> raise (Svi.Unsupported "per-site strategy mixing")
    in
    let s =
      match objective with
      | Grid.Elbo -> Svi.elbo_surrogate ~model ~guide estimator key
      | Grid.Iwae -> Svi.iwelbo_surrogate ~particles:2 ~model ~guide estimator key
      | Grid.Rws -> raise (Svi.Unsupported "reweighted wake-sleep")
    in
    Ad.backward s
  in
  let check combo obj expect =
    let got = Grid.outcome_ok (Grid.try_probe ~probe combo obj k0) in
    if got <> expect then
      Alcotest.failf "baseline %s/%s: expected %b" (Grid.combo_name combo)
        (Grid.objective_name obj) expect
  in
  check { Grid.pres = Air.RE; pos = Air.RE } Grid.Elbo true;
  check { Grid.pres = Air.RE_BL; pos = Air.RE_BL } Grid.Elbo true;
  check { Grid.pres = Air.EN; pos = Air.EN } Grid.Elbo true;
  check { Grid.pres = Air.MV; pos = Air.MV } Grid.Elbo false;
  check { Grid.pres = Air.RE; pos = Air.EN } Grid.Elbo false;
  check { Grid.pres = Air.RE; pos = Air.RE } Grid.Iwae true;
  check { Grid.pres = Air.EN; pos = Air.EN } Grid.Iwae false;
  check { Grid.pres = Air.RE; pos = Air.RE } Grid.Rws false

let suites =
  [ ( "baseline",
      [ Alcotest.test_case "vae hand value agrees" `Slow test_vae_hand_agrees;
        Alcotest.test_case "vae hand gradients agree" `Slow
          test_vae_hand_gradients_agree;
        Alcotest.test_case "svi enum exact" `Quick test_svi_enum_exact;
        Alcotest.test_case "svi reinforce unbiased" `Slow
          test_svi_reinforce_unbiased;
        Alcotest.test_case "svi baselines unbiased" `Slow
          test_svi_baselines_unbiased;
        Alcotest.test_case "svi reparam pathwise" `Slow
          test_svi_reparam_pathwise;
        Alcotest.test_case "svi unsupported marginal" `Quick
          test_svi_unsupported_marginal;
        Alcotest.test_case "svi unsupported iwelbo+enum" `Quick
          test_svi_unsupported_iwelbo_enum;
        Alcotest.test_case "svi iwelbo reinforce" `Quick
          test_svi_iwelbo_reinforce_runs;
        Alcotest.test_case "svi iwelbo matches modular" `Slow
          test_svi_iwelbo_matches_modular;
        Alcotest.test_case "grid baseline menu" `Quick test_grid_baseline_menu ] ) ]

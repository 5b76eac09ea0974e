(* Tests for the YOLO derivation of reverse mode (Fig. 9): each pass in
   isolation, the end-to-end JVP/VJP agreement, unbiasedness against
   closed forms, and agreement with the main ADEV implementation. *)

let k0 = Prng.key 1311

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

(* The Fig. 9 example: L(theta) = E_{x ~ N(theta1, 1)} [sin x + theta2]. *)
let fig9 =
  { Yolo.params = [ "theta1"; "theta2" ];
    body =
      [ Yolo.Sample_normal ("x", Yolo.Var "theta1", Yolo.Const 1.);
        Yolo.Let ("y", Yolo.Sin (Yolo.Var "x"));
        Yolo.Let ("z", Yolo.Add (Yolo.Var "y", Yolo.Var "theta2")) ];
    result = "z" }

let theta = [ ("theta1", 0.7); ("theta2", 0.2) ]

(* Closed forms: E = e^{-1/2} sin theta1 + theta2;
   dE/dtheta1 = e^{-1/2} cos theta1; dE/dtheta2 = 1. *)
let exact_value = (Float.exp (-0.5) *. Float.sin 0.7) +. 0.2
let exact_g1 = Float.exp (-0.5) *. Float.cos 0.7

let test_validate () =
  Alcotest.(check bool) "fig9 valid" true (Yolo.validate fig9 = Ok ());
  let bad_scope =
    { fig9 with body = [ Yolo.Let ("y", Yolo.Var "nope") ] }
  in
  Alcotest.(check bool) "unbound rejected" true
    (match Yolo.validate bad_scope with Error _ -> true | Ok () -> false);
  let double_def =
    { fig9 with
      body =
        [ Yolo.Let ("y", Yolo.Const 1.); Yolo.Let ("y", Yolo.Const 2.) ];
      result = "y" }
  in
  Alcotest.(check bool) "double definition rejected" true
    (match Yolo.validate double_def with Error _ -> true | Ok () -> false)

let test_anf_evaluates () =
  (* Deterministic program: the flattened body computes the same value. *)
  let prog =
    { Yolo.params = [ "a" ];
      body =
        [ Yolo.Let
            ( "r",
              Yolo.Add
                ( Yolo.Mul (Yolo.Var "a", Yolo.Var "a"),
                  Yolo.Sin (Yolo.Neg (Yolo.Var "a")) ) ) ];
      result = "r" }
  in
  let body, result = Yolo.anf prog in
  let env = Yolo.run_nonlin [ ("a", 1.3) ] k0 body in
  check_close "anf value" ~tol:1e-12
    ((1.3 *. 1.3) +. Float.sin (-1.3))
    (List.assoc result env)

let test_jvp_deterministic () =
  (* d/da (a^2 + exp a) = 2a + e^a, exact for deterministic programs. *)
  let prog =
    { Yolo.params = [ "a" ];
      body =
        [ Yolo.Let
            ( "r",
              Yolo.Add (Yolo.Mul (Yolo.Var "a", Yolo.Var "a"), Yolo.Exp (Yolo.Var "a"))
            ) ];
      result = "r" }
  in
  let v, dv = Yolo.jvp prog [ ("a", 0.8) ] ~direction:[ ("a", 1.) ] k0 in
  check_close "jvp value" ~tol:1e-12 ((0.8 ** 2.) +. Float.exp 0.8) v;
  check_close "jvp derivative" ~tol:1e-12 (1.6 +. Float.exp 0.8) dv

let test_unzip_trace () =
  (* The trace of fig9 contains exactly the nonlinear values the linear
     part needs: the cos-coefficient and the sampling eps. *)
  let dual = Yolo.forward fig9 in
  let _, trace, _ = Yolo.unzip dual in
  Alcotest.(check bool) "trace has a cos coefficient" true
    (List.exists (fun v -> String.length v > 4 && String.sub v 1 4 = "dcos") trace);
  Alcotest.(check bool) "trace has the sampling eps" true
    (List.exists (fun v -> String.length v > 3 && String.sub v 1 3 = "eps") trace)

let test_jvp_matches_reverse_per_sample () =
  (* With the same key (same eps), the JVP in direction e_i equals the
     i-th reverse-mode gradient component exactly. *)
  List.iteri
    (fun i param ->
      let direction = List.map (fun (p, _) -> (p, if p = param then 1. else 0.)) theta in
      let _, dv = Yolo.jvp fig9 theta ~direction k0 in
      let _, grad = Yolo.reverse_grad fig9 theta k0 in
      check_close
        (Printf.sprintf "component %d" i)
        ~tol:1e-12 dv (List.assoc param grad))
    [ "theta1"; "theta2" ]

let test_reverse_grad_unbiased () =
  let n = 60000 in
  let total_v = ref 0. and total_g1 = ref 0. and total_g2 = ref 0. in
  for i = 0 to n - 1 do
    let v, grad = Yolo.reverse_grad fig9 theta (Prng.fold_in k0 i) in
    total_v := !total_v +. v;
    total_g1 := !total_g1 +. List.assoc "theta1" grad;
    total_g2 := !total_g2 +. List.assoc "theta2" grad
  done;
  let nf = float_of_int n in
  check_close "E value" ~tol:0.02 exact_value (!total_v /. nf);
  check_close "dE/dtheta1" ~tol:0.02 exact_g1 (!total_g1 /. nf);
  check_close "dE/dtheta2" ~tol:1e-9 1. (!total_g2 /. nf)

let test_agrees_with_main_adev () =
  (* The same objective through the main (surrogate-loss) reverse mode:
     both are unbiased for the same derivative. *)
  let n = 60000 in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let th1 = Ad.param (Tensor.scalar 0.7) in
    let open Adev.Syntax in
    let obj =
      let* x = Adev.sample (Dist.normal_reparam th1 (Ad.scalar 1.)) in
      (* sin via a custom node (value + derivative): legitimate since x
         is smooth and sin is differentiable. *)
      let s =
        Ad.custom
          ~value:(Tensor.map Float.sin (Ad.value x))
          ~parents:[ (x, fun g -> Tensor.mul g (Tensor.map Float.cos (Ad.value x))) ]
      in
      Adev.return (Ad.add_scalar 0.2 s)
    in
    let _, grads =
      Adev.grad ~params:[ ("th1", th1) ] obj (Prng.fold_in (Prng.key 77) i)
    in
    total := !total +. Tensor.to_scalar (List.assoc "th1" grads)
  done;
  let adev_g1 = !total /. float_of_int n in
  check_close "main adev matches closed form" ~tol:0.02 exact_g1 adev_g1

let test_scale_and_sub () =
  (* Psub and negative scales transpose correctly:
     r = a - 2 b  =>  dr/da = 1, dr/db = -2. *)
  let prog =
    { Yolo.params = [ "a"; "b" ];
      body =
        [ Yolo.Let
            ("r", Yolo.Sub (Yolo.Var "a", Yolo.Mul (Yolo.Const 2., Yolo.Var "b")))
        ];
      result = "r" }
  in
  let _, grad = Yolo.reverse_grad prog [ ("a", 1.); ("b", 2.) ] k0 in
  check_close "d/da" ~tol:1e-12 1. (List.assoc "a" grad);
  check_close "d/db" ~tol:1e-12 (-2.) (List.assoc "b" grad)

let test_fan_out () =
  (* A variable used twice accumulates cotangents: r = a * a. *)
  let prog =
    { Yolo.params = [ "a" ];
      body = [ Yolo.Let ("r", Yolo.Mul (Yolo.Var "a", Yolo.Var "a")) ];
      result = "r" }
  in
  let _, grad = Yolo.reverse_grad prog [ ("a", 3.) ] k0 in
  check_close "fan-out" ~tol:1e-12 6. (List.assoc "a" grad)

let test_sigma_tangent () =
  (* Gradient with respect to a scale parameter flows through the eps
     coefficient: L = E[x^2], x ~ N(0, s): dL/ds = 2s. *)
  let prog =
    { Yolo.params = [ "s" ];
      body =
        [ Yolo.Sample_normal ("x", Yolo.Const 0., Yolo.Var "s");
          Yolo.Let ("r", Yolo.Mul (Yolo.Var "x", Yolo.Var "x")) ];
      result = "r" }
  in
  let n = 40000 in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let _, grad = Yolo.reverse_grad prog [ ("s", 0.9) ] (Prng.fold_in k0 i) in
    total := !total +. List.assoc "s" grad
  done;
  check_close "dE/dsigma" ~tol:0.05 1.8 (!total /. float_of_int n)

(* Property: on random deterministic programs, reverse_grad matches
   finite differences. *)
let prop_reverse_matches_fd =
  QCheck.Test.make ~name:"reverse grad matches finite differences" ~count:60
    QCheck.(pair (float_range 0.2 1.5) (float_range 0.2 1.5))
    (fun (a, b) ->
      let prog =
        { Yolo.params = [ "a"; "b" ];
          body =
            [ Yolo.Let ("u", Yolo.Mul (Yolo.Var "a", Yolo.Sin (Yolo.Var "b")));
              Yolo.Let ("v", Yolo.Exp (Yolo.Sub (Yolo.Var "u", Yolo.Var "b")));
              Yolo.Let ("r", Yolo.Add (Yolo.Var "v", Yolo.Mul (Yolo.Var "a", Yolo.Var "a")))
            ];
          result = "r" }
      in
      let value env = fst (Yolo.reverse_grad prog env k0) in
      let _, grad = Yolo.reverse_grad prog [ ("a", a); ("b", b) ] k0 in
      let eps = 1e-5 in
      let fd p =
        let bump d = value (List.map (fun (q, v) -> (q, if q = p then v +. d else v)) [ ("a", a); ("b", b) ]) in
        (bump eps -. bump (-.eps)) /. (2. *. eps)
      in
      Float.abs (List.assoc "a" grad -. fd "a") < 1e-4
      && Float.abs (List.assoc "b" grad -. fd "b") < 1e-4)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_reverse_matches_fd ]

let suites =
  [ ( "yolo",
      [ Alcotest.test_case "validate" `Quick test_validate;
        Alcotest.test_case "anf evaluates" `Quick test_anf_evaluates;
        Alcotest.test_case "jvp deterministic" `Quick test_jvp_deterministic;
        Alcotest.test_case "unzip trace" `Quick test_unzip_trace;
        Alcotest.test_case "jvp = reverse per sample" `Quick
          test_jvp_matches_reverse_per_sample;
        Alcotest.test_case "reverse grad unbiased" `Slow
          test_reverse_grad_unbiased;
        Alcotest.test_case "agrees with main adev" `Slow
          test_agrees_with_main_adev;
        Alcotest.test_case "sub and scale" `Quick test_scale_and_sub;
        Alcotest.test_case "fan-out" `Quick test_fan_out;
        Alcotest.test_case "sigma tangent" `Slow test_sigma_tangent ]
      @ qcheck_cases ) ]

(* Extending the system with a new primitive and a custom gradient
   estimation strategy, in a few lines of user code (Appendix F of the
   paper). No system internals are touched: a primitive is just a
   [Dist.make] record supplying

   - a sampler (agreeing with the density: the first proof obligation),
   - a differentiable log density (the second),
   - strategy data — here a reparameterized sampler via the inverse CDF
     (the third).

   We define Exponential(rate) with a REPARAM strategy and check the
   automated gradient of E[x^2] against the closed form
   d/d rate (2 / rate^2) = -4 / rate^3.

   Run with: dune exec examples/custom_primitive.exe *)

let exponential_reparam rate =
  Dist.make ~name:"exponential" ~strategy:Dist.Reparam
    ~sample:(fun key ->
      Ad.scalar (Prng.exponential key /. Tensor.to_scalar (Ad.value rate)))
    ~log_density:(fun x -> Ad.O.(Ad.log rate - (rate * x)))
    ~default:(Ad.scalar 1.) ~inject:(fun a -> Value.Real a)
    ~project:(function Value.Real a -> Some a | _ -> None)
    ~reparam:(fun key ->
      (* Inverse CDF: x = -log u / rate, differentiable in rate. *)
      let e = Prng.exponential key in
      Ad.div (Ad.scalar e) rate)
    ()

let () =
  let rate_v = 1.3 in
  let n = 20000 in
  Printf.printf
    "custom primitive: Exponential(%.1f) with a user-supplied REPARAM \
     strategy\n"
    rate_v;
  let open Adev.Syntax in
  let total_v = ref 0. and total_g = ref 0. in
  for i = 0 to n - 1 do
    let rate = Ad.param (Tensor.scalar rate_v) in
    let obj =
      let* x = Adev.sample (exponential_reparam rate) in
      Adev.return (Ad.mul x x)
    in
    let v, grads =
      Adev.grad ~params:[ ("rate", rate) ] obj (Prng.fold_in (Prng.key 0) i)
    in
    total_v := !total_v +. v;
    total_g := !total_g +. Tensor.to_scalar (List.assoc "rate" grads)
  done;
  let nf = float_of_int n in
  Printf.printf "E[x^2]         estimated %.3f   closed form %.3f\n"
    (!total_v /. nf)
    (2. /. (rate_v ** 2.));
  Printf.printf "d/drate E[x^2] estimated %.3f   closed form %.3f\n"
    (!total_g /. nf)
    (-4. /. (rate_v ** 3.));

  (* The new primitive composes with everything else: use it inside a
     generative program and a variational objective unchanged. *)
  let model =
    let open Gen.Syntax in
    let* x = Gen.sample (exponential_reparam (Ad.scalar 1.)) "x" in
    Gen.observe (Dist.normal_reparam x (Ad.scalar 0.5)) (Ad.scalar 2.)
  in
  let store = Store.create () in
  Store.ensure store "q.rate" (fun () -> Tensor.scalar 1.);
  let guide frame =
    let rate = Ad.add_scalar 1e-3 (Ad.softplus (Store.Frame.get frame "q.rate")) in
    Gen.sample (exponential_reparam rate) "x"
  in
  let optim = Optim.adam ~lr:0.05 () in
  let reports =
    Train.fit ~store ~optim ~steps:600 ~samples:4
      ~objective:(fun frame _ ->
        Objectives.elbo ~model
          ~guide:(Gen.map (fun _ -> ()) (guide frame)))
      (Prng.key 1)
  in
  Printf.printf
    "\nused inside a Gen model + ELBO: objective %.3f -> %.3f over 600 steps\n"
    (List.nth reports 0).Train.objective
    (List.nth reports 599).Train.objective

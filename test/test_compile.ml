(* Staged compilation: plan construction, PV501 refusals, plan-cache
   behavior, and the flagship invariant — compiled execution is
   bit-identical to the interpreter across the entire preflight
   registry. *)

open Gen.Syntax

let bits = Int64.bits_of_float

let float_bits_equal a b = Int64.equal (bits a) (bits b)

let tensor_bits_equal t1 t2 =
  Tensor.shape t1 = Tensor.shape t2
  &&
  let a = Tensor.to_array t1 and b = Tensor.to_array t2 in
  let ok = ref true in
  Array.iteri (fun i x -> if not (float_bits_equal x b.(i)) then ok := false) a;
  !ok

let value_bits_equal v1 v2 =
  match (v1, v2) with
  | Value.Real a, Value.Real b -> tensor_bits_equal (Ad.value a) (Ad.value b)
  | _ -> v1 = v2

let trace_bits_equal t1 t2 =
  let b1 = Trace.bindings t1 and b2 = Trace.bindings t2 in
  List.length b1 = List.length b2
  && List.for_all2
       (fun (a1, v1) (a2, v2) -> String.equal a1 a2 && value_bits_equal v1 v2)
       b1 b2

let scalar_of w = Tensor.to_scalar (Ad.value w)

(* Run an Adev computation for its returned value (constant-zero loss:
   no gradient flows, we only compare forward results bitwise). *)
let run_for m key =
  let out = ref None in
  ignore
    (Adev.run m key (fun x ->
         out := Some x;
         Ad.scalar 0.));
  Option.get !out

(* The invariant under test: against a freshly compiled plan, simulate
   and log-density must reproduce the interpreter bit-for-bit — same
   keys, same traces, same accumulation order. Returns false only on a
   genuine divergence; refusals are vacuously fine (the objective layer
   falls back to the interpreter). *)
let check_bit_identity ~id (Gen.Packed prog) seed =
  match Compile.compile ~id (Gen.Packed prog) with
  | Compile.Refused _ -> true
  | Compile.Compiled plan ->
    let key = Prng.key seed in
    let _, ti, wi = run_for (Gen.simulate prog) key in
    let _, tc, wc = run_for (Gen.simulate_compiled plan prog) key in
    let sim_ok =
      float_bits_equal (scalar_of wi) (scalar_of wc) && trace_bits_equal ti tc
    in
    let di = run_for (Gen.log_density prog ti) key in
    let dc = run_for (Gen.log_density_compiled plan prog ti) key in
    let dens_ok = float_bits_equal (scalar_of di) (scalar_of dc) in
    (* Second run through the same plan: the reused arena buffers must
       not leak state between calls. *)
    let key2 = Prng.key (seed + 7919) in
    let _, ti2, wi2 = run_for (Gen.simulate prog) key2 in
    let _, tc2, wc2 = run_for (Gen.simulate_compiled plan prog) key2 in
    let reuse_ok =
      float_bits_equal (scalar_of wi2) (scalar_of wc2)
      && trace_bits_equal ti2 tc2
    in
    sim_ok && dens_ok && reuse_ok

let registry_programs entry =
  match entry.Preflight.make () with
  | Check.Program p -> [ (entry.Preflight.name, p) ]
  | Check.Pair { model; guide } ->
    [ (entry.Preflight.name ^ "/model", model);
      (entry.Preflight.name ^ "/guide", guide) ]
  | exception _ -> []

(* QCheck property: every program in the preflight registry, across
   seeds, is bit-identical compiled vs interpreted (or refuses). *)
let prop_registry_bit_identity =
  QCheck.Test.make ~name:"registry compiled == interpreter (bitwise)"
    ~count:25
    QCheck.(small_nat)
    (fun seed ->
      List.for_all
        (fun entry ->
          List.for_all
            (fun (id, p) ->
              check_bit_identity ~id:(Printf.sprintf "%s#%d" id seed) p seed)
            (registry_programs entry))
        Preflight.entries)

(* Same property over the VAE pair across batch sizes (plate extents)
   and seeds: the plan is structure-only, so each batch size gets its
   own staging here to also vary the planned shapes. *)
let prop_vae_batch_sizes =
  QCheck.Test.make ~name:"vae compiled == interpreter across batch sizes"
    ~count:12
    QCheck.(pair (int_range 1 9) small_nat)
    (fun (batch, seed) ->
      let store = Store.create () in
      Vae.register store (Prng.key 11);
      let frame = Store.Frame.make store in
      let images, _ = Data.digit_batch (Prng.key (100 + seed)) batch in
      check_bit_identity
        ~id:(Printf.sprintf "test/vae-b%d-s%d/model" batch seed)
        (Gen.Packed (Vae.model frame images))
        seed
      && check_bit_identity
           ~id:(Printf.sprintf "test/vae-b%d-s%d/guide" batch seed)
           (Gen.Packed (Vae.guide frame images))
           seed)

(* And across plate domain counts for an explicit Gen.plate program
   (batched lowering) plus an index-dependent body (sequential
   fallback). *)
let prop_plate_domains =
  QCheck.Test.make ~name:"plates compiled == interpreter across domain counts"
    ~count:20
    QCheck.(pair (int_range 1 12) small_nat)
    (fun (n, seed) ->
      let batched =
        let* xs =
          Gen.plate ~n (fun _ ->
              Gen.sample
                (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.))
                "row")
        in
        let s = Array.fold_left Ad.add (Ad.scalar 0.) xs in
        Gen.observe (Dist.normal_reparam s (Ad.scalar 1.)) (Ad.scalar 0.5)
      in
      let sequential =
        let* _ =
          Gen.plate ~n (fun i ->
              Gen.sample
                (Dist.normal_reparam
                   (Ad.scalar (float_of_int i))
                   (Ad.scalar 1.))
                "row")
        in
        Gen.return ()
      in
      check_bit_identity
        ~id:(Printf.sprintf "test/plate-b%d-s%d" n seed)
        (Gen.Packed batched) seed
      && check_bit_identity
           ~id:(Printf.sprintf "test/plate-s%d-s%d" n seed)
           (Gen.Packed sequential) seed)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let compiled_exn = function
  | Compile.Compiled p -> p
  | Compile.Refused r -> Alcotest.failf "unexpected refusal: %s" r.r_reason

(* An index-dependent plate body must take the sequential fallback and
   still execute bit-identically (checked above); here we pin the plan
   shape itself. *)
let test_seq_fallback_site () =
  let prog =
    let* _ =
      Gen.plate ~n:3 (fun i ->
          Gen.sample
            (Dist.normal_reparam (Ad.scalar (float_of_int i)) (Ad.scalar 1.))
            "w")
    in
    Gen.return ()
  in
  let plan = compiled_exn (Compile.compile ~id:"unit/seqfb" (Gen.Packed prog)) in
  Alcotest.(check int) "one sequential fallback" 1 (Gen.Plan.seq_fallbacks plan);
  Alcotest.(check int) "no slots (suffixed sites live in the overflow trace)" 0
    (Array.length (Gen.Plan.slots plan));
  let step = (Gen.Plan.steps plan).(0) in
  Alcotest.(check bool) "kind is Plate_seq" true
    (step.Gen.Plan.st_kind = Gen.Plan.Plate_seq);
  Alcotest.(check int) "plate extent pinned" 3 step.Gen.Plan.st_n

let test_batched_plate_site () =
  let prog =
    let* _ =
      Gen.plate ~n:4 (fun _ ->
          Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z")
    in
    Gen.return ()
  in
  let plan = compiled_exn (Compile.compile ~id:"unit/batched" (Gen.Packed prog)) in
  Alcotest.(check int) "no fallbacks" 0 (Gen.Plan.seq_fallbacks plan);
  Alcotest.(check (array string)) "slot table" [| "z" |] (Gen.Plan.slots plan);
  let step = (Gen.Plan.steps plan).(0) in
  Alcotest.(check bool) "kind is Plate_batched" true
    (step.Gen.Plan.st_kind = Gen.Plan.Plate_batched)

(* The canonical dynamic-structure program: a REINFORCE probe visits
   both branch arms, the arms bind different sites, and the compiler
   must refuse with a clear PV501 rather than bake in one arm. *)
let test_dynamic_structure_refusal () =
  let prog =
    let* x =
      Gen.sample (Dist.normal_reinforce (Ad.scalar 0.) (Ad.scalar 1.)) "x"
    in
    if Gen.rigid x > 0. then
      let* _ =
        Gen.sample (Dist.normal_reinforce (Ad.scalar 1.) (Ad.scalar 1.)) "pos"
      in
      Gen.return ()
    else Gen.return ()
  in
  match Compile.compile ~id:"unit/dynamic" (Gen.Packed prog) with
  | Compile.Compiled _ -> Alcotest.fail "dynamic structure must refuse"
  | Compile.Refused r ->
    Alcotest.(check string) "diagnostic code" "PV501" r.Compile.r_code;
    let mentions needle =
      let hay = r.Compile.r_reason in
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      "reason names data-dependent structure" true
      (mentions "differs across execution paths")

let test_enum_refusal () =
  let prog = Gen.map (fun _ -> ()) (Gen.sample (Dist.flip_enum (Ad.scalar 0.4)) "c") in
  match Compile.compile ~id:"unit/enum" (Gen.Packed prog) with
  | Compile.Compiled _ -> Alcotest.fail "ENUM must refuse"
  | Compile.Refused r ->
    Alcotest.(check string) "code" "PV501" r.Compile.r_code;
    Alcotest.(check (option string)) "address" (Some "c") r.Compile.r_address

let test_plan_cache () =
  Compile.reset_cache ();
  let prog () =
    Gen.map (fun _ -> ())
      (Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x")
  in
  Obs.configure ~enabled:true ();
  Obs.reset ();
  let r1 = Compile.plan_for ~id:"unit/cache" (Gen.Packed (prog ())) in
  let r2 = Compile.plan_for ~id:"unit/cache" (Gen.Packed (prog ())) in
  Alcotest.(check bool) "second lookup is the cached result" true (r1 == r2);
  Alcotest.(check int) "one miss" 1 (Obs.counter_value "compile/plan_miss");
  Alcotest.(check int) "one hit" 1 (Obs.counter_value "compile/plan_hit");
  Compile.invalidate "unit/cache";
  let r3 = Compile.plan_for ~id:"unit/cache" (Gen.Packed (prog ())) in
  Alcotest.(check bool) "invalidate forces a re-stage" true (not (r3 == r1));
  Alcotest.(check int) "second miss" 2 (Obs.counter_value "compile/plan_miss");
  Alcotest.(check bool) "re-staged id listed" true
    (List.mem "unit/cache" (Compile.cached_ids ()));
  Obs.reset ();
  Obs.configure ~enabled:false ();
  Compile.reset_cache ()

(* Executing a different program against a stale plan must raise
   Plan_mismatch (hard error, never silent corruption or a retry). *)
let test_plan_mismatch () =
  let prog_a =
    Gen.map (fun _ -> ())
      (Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "a")
  in
  let prog_b =
    Gen.map (fun _ -> ())
      (Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "b")
  in
  let plan = compiled_exn (Compile.compile ~id:"unit/stale" (Gen.Packed prog_a)) in
  match run_for (Gen.simulate_compiled plan prog_b) (Prng.key 0) with
  | _ -> Alcotest.fail "stale plan must raise Plan_mismatch"
  | exception Gen.Plan_mismatch msg ->
    Alcotest.(check bool) "message names the plan" true
      (String.length msg > 0)

(* The staged ELBO mirrors the interpreter's bind structure, so whole
   surrogates (values AND gradients) must match bitwise. *)
let test_elbo_staged_bit_identity () =
  Compile.reset_cache ();
  let store = Store.create () in
  Vae.register store (Prng.key 3);
  let images, _ = Data.digit_batch (Prng.key 4) 6 in
  let grad_of compiled =
    let frame = Store.Frame.make store in
    let s =
      Adev.expectation (Vae.elbo_per_datum ~compiled frame images) (Prng.key 5)
    in
    Ad.backward s;
    (scalar_of s, Store.Frame.grads frame)
  in
  let v0, g0 = grad_of false in
  let v1, g1 = grad_of true in
  Alcotest.(check bool) "surrogate bits equal" true (float_bits_equal v0 v1);
  List.iter2
    (fun (n0, t0) (n1, t1) ->
      Alcotest.(check string) "param order" n0 n1;
      Alcotest.(check bool) (n0 ^ " grad bits equal") true
        (tensor_bits_equal t0 t1))
    g0 g1;
  Compile.reset_cache ()

(* The fused Bernoulli-logits scoring path (leaf observations) must
   agree with the composed softplus formula — values and logits
   gradient. *)
let test_fused_bernoulli_density () =
  let key = Prng.key 17 in
  let raw =
    Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor key [| 32 |])
  in
  let x =
    Ad.const
      (Tensor.map
         (fun u -> if u > 0.5 then 1. else 0.)
         (Prng.uniform_tensor (Prng.fold_in key 1) [| 32 |]))
  in
  (* Separate leaves over the same values: each formula gets its own
     gradient accumulator. *)
  let l_fused = Ad.param raw and l_composed = Ad.param raw in
  let fused = (Dist.bernoulli_logits_vector l_fused).Dist.log_density x in
  (* Re-derive the composed formula directly (what non-leaf x uses). *)
  let composed =
    let open Ad.O in
    Ad.neg
      (Ad.sum
         ((x * Ad.softplus (Ad.neg l_composed))
         + ((Ad.scalar 1. - x) * Ad.softplus l_composed)))
  in
  Alcotest.(check (float 1e-9)) "values agree" (scalar_of composed)
    (scalar_of fused);
  Ad.backward fused;
  Ad.backward composed;
  let fa = Tensor.to_array (Ad.grad l_fused)
  and ca = Tensor.to_array (Ad.grad l_composed) in
  Array.iteri
    (fun i g -> Alcotest.(check (float 1e-9)) "logits grad agrees" ca.(i) g)
    fa

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_registry_bit_identity; prop_vae_batch_sizes; prop_plate_domains ]

let suites =
  [ ( "compile",
      [ Alcotest.test_case "seq fallback site" `Quick test_seq_fallback_site;
        Alcotest.test_case "batched plate site" `Quick test_batched_plate_site;
        Alcotest.test_case "dynamic structure refuses (PV501)" `Quick
          test_dynamic_structure_refusal;
        Alcotest.test_case "ENUM refuses (PV501)" `Quick test_enum_refusal;
        Alcotest.test_case "plan cache hit/miss/invalidate" `Quick
          test_plan_cache;
        Alcotest.test_case "stale plan raises Plan_mismatch" `Quick
          test_plan_mismatch;
        Alcotest.test_case "staged ELBO bit-identical (VAE)" `Slow
          test_elbo_staged_bit_identity;
        Alcotest.test_case "fused bernoulli-logits density" `Quick
          test_fused_bernoulli_density ]
      @ qcheck_cases ) ]

(* Golden bits. The loop-based tensor draws and the precomputed-glyph
   data generators must reproduce the original array-and-closure
   implementations (kept below as oracles) bit for bit, and a short
   fixed-seed training run must reproduce its recorded objective
   fingerprint — the end-to-end check that a faster reverse sweep or
   data path left every gradient and every draw unchanged. *)

let bits = Int64.bits_of_float
let tensor_bits t = Array.map bits (Tensor.to_array t)

let same_tensor name a b =
  Alcotest.(check (array int)) (name ^ " shape") (Tensor.shape a) (Tensor.shape b);
  if tensor_bits a <> tensor_bits b then Alcotest.failf "%s: bits differ" name

(* ------------------------------------------------------------------ *)
(* Oracles: the original implementations.                              *)

module Oracle = struct
  let normal k =
    let k1, k2 = Prng.split k in
    let u1 = Float.max (Prng.uniform k1) 1e-300 in
    let u2 = Prng.uniform k2 in
    Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

  let uniform_tensor k shape =
    let n = Tensor.size (Tensor.zeros shape) in
    let ks = Prng.split_many k n in
    Tensor.of_array shape (Array.map Prng.uniform ks)

  let normal_tensor k shape =
    let n = Tensor.size (Tensor.zeros shape) in
    let ks = Prng.split_many k n in
    Tensor.of_array shape (Array.map normal ks)

  let segments_of_digit = function
    | 0 -> [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ]
    | 1 -> [ 'b'; 'c' ]
    | 2 -> [ 'a'; 'b'; 'g'; 'e'; 'd' ]
    | 3 -> [ 'a'; 'b'; 'g'; 'c'; 'd' ]
    | 4 -> [ 'f'; 'g'; 'b'; 'c' ]
    | 5 -> [ 'a'; 'f'; 'g'; 'c'; 'd' ]
    | 6 -> [ 'a'; 'f'; 'g'; 'e'; 'c'; 'd' ]
    | 7 -> [ 'a'; 'b'; 'c' ]
    | 8 -> [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f'; 'g' ]
    | 9 -> [ 'a'; 'b'; 'c'; 'd'; 'f'; 'g' ]
    | d -> invalid_arg (Printf.sprintf "Data.digit_glyph: %d" d)

  let digit_glyph d =
    let segs = segments_of_digit d in
    let on seg = List.mem seg segs in
    let top = 1 and left = 3 in
    let h = 10 and w = 6 in
    Tensor.init [| 12; 12 |] (fun ix ->
        let r = ix.(0) - top and c = ix.(1) - left in
        if r < 0 || r >= h || c < 0 || c >= w then 0.
        else begin
          let mid = h / 2 in
          let hit =
            (on 'a' && r = 0)
            || (on 'g' && r = mid)
            || (on 'd' && r = h - 1)
            || (on 'f' && c = 0 && r <= mid)
            || (on 'e' && c = 0 && r >= mid)
            || (on 'b' && c = w - 1 && r <= mid)
            || (on 'c' && c = w - 1 && r >= mid)
          in
          if hit then 1. else 0.
        end)

  let shift_image img dr dc =
    let side = (Tensor.shape img).(0) in
    Tensor.init [| side; side |] (fun ix ->
        let r = ix.(0) - dr and c = ix.(1) - dc in
        if r < 0 || r >= side || c < 0 || c >= side then 0.
        else Tensor.get img [| r; c |])

  let flip_pixels key rate img =
    let u = uniform_tensor key (Tensor.shape img) in
    Tensor.map2 (fun ui xi -> if ui < rate then 1. -. xi else xi) u img

  let sprite ?(noise = 0.02) key d =
    let k1, rest = Prng.split key in
    let k2, k3 = Prng.split rest in
    let dr = Prng.categorical k1 [| 1.; 1.; 1. |] - 1 in
    let dc = Prng.categorical k2 [| 1.; 1.; 1. |] - 1 in
    flip_pixels k3 noise (shift_image (digit_glyph d) dr dc)

  let digit_batch ?noise key n =
    let ks = Prng.split_many key n in
    let labels = Array.map (fun k -> Prng.categorical k (Array.make 10 1.)) ks in
    let images =
      Array.to_list
        (Array.mapi
           (fun i k -> Tensor.flatten (sprite ?noise (Prng.fold_in k 1) labels.(i)))
           ks)
    in
    (Tensor.stack0 images, labels)

  let patch_glyph d =
    let g = digit_glyph d in
    Tensor.init [| 6; 6 |] (fun ix ->
        let r = ix.(0) * 12 / 6 in
        let c = ix.(1) * 12 / 6 in
        let any = ref 0. in
        for dr = 0 to 1 do
          for dc = 0 to 1 do
            if Tensor.get g [| r + dr; c + dc |] > 0.5 then any := 1.
          done
        done;
        !any)

  let render_scene objs =
    let canvas = Array.make 256 0. in
    List.iter
      (fun (digit, pos) ->
        let patch = patch_glyph digit in
        let r0, c0 = Data.position_offset pos in
        for r = 0 to 5 do
          for c = 0 to 5 do
            let p = Tensor.get patch [| r; c |] in
            let i = ((r0 + r) * 16) + (c0 + c) in
            canvas.(i) <- 1. -. ((1. -. canvas.(i)) *. (1. -. p))
          done
        done)
      objs;
    Tensor.of_array [| 16; 16 |] canvas

  let air_scene key =
    let k1, rest = Prng.split key in
    let k2, k3 = Prng.split rest in
    let count = Prng.categorical k1 (Array.make 3 1.) in
    let positions = Prng.permutation k2 4 in
    let objs =
      List.init count (fun i ->
          let digit = Prng.categorical (Prng.fold_in k3 i) (Array.make 10 1.) in
          (digit, positions.(i)))
    in
    let img = flip_pixels (Prng.fold_in k3 99) 0.01 (render_scene objs) in
    (Tensor.flatten img, count)

  let air_batch key n =
    let ks = Prng.split_many key n in
    let scenes = Array.map air_scene ks in
    (Tensor.stack0 (Array.to_list (Array.map fst scenes)), Array.map snd scenes)
end

(* ------------------------------------------------------------------ *)
(* Draws and data against the oracles.                                 *)

let keys = List.init 24 (fun i -> Prng.fold_in (Prng.key (i * 7919)) i)

let shapes =
  [ [||]; [| 0 |]; [| 1 |]; [| 2 |]; [| 7 |]; [| 0; 3 |]; [| 3; 0 |]; [| 1; 1 |];
    [| 3; 5 |]; [| 12; 12 |]; [| 2; 3; 4 |]; [| 1; 0; 2 |]; [| 64 |] ]

let test_tensor_draws () =
  List.iteri
    (fun ki k ->
      List.iter
        (fun shape ->
          let name kind =
            Printf.sprintf "%s key %d shape [%s]" kind ki
              (String.concat ";" (Array.to_list (Array.map string_of_int shape)))
          in
          same_tensor (name "uniform") (Oracle.uniform_tensor k shape)
            (Prng.uniform_tensor k shape);
          same_tensor (name "normal") (Oracle.normal_tensor k shape)
            (Prng.normal_tensor k shape);
          let a = Array.make (Tensor.size (Tensor.zeros shape)) nan in
          Prng.fill_uniform k a;
          if Array.map bits a <> tensor_bits (Oracle.uniform_tensor k shape) then
            Alcotest.failf "%s: bits differ" (name "fill_uniform"))
        shapes;
      if bits (Prng.normal k) <> bits (Oracle.normal k) then
        Alcotest.failf "normal key %d: bits differ" ki)
    keys

let test_data () =
  for d = 0 to 9 do
    same_tensor (Printf.sprintf "glyph %d" d) (Oracle.digit_glyph d) (Data.digit_glyph d);
    same_tensor (Printf.sprintf "patch %d" d) (Oracle.patch_glyph d) (Data.patch_glyph d)
  done;
  List.iteri
    (fun ki k ->
      List.iter
        (fun n ->
          let name kind = Printf.sprintf "%s key %d n %d" kind ki n in
          let oi, ol = Oracle.digit_batch k n and ni, nl = Data.digit_batch k n in
          same_tensor (name "digit_batch") oi ni;
          Alcotest.(check (array int)) (name "digit labels") ol nl;
          let oi, ol = Oracle.digit_batch ~noise:0.3 k n
          and ni, nl = Data.digit_batch ~noise:0.3 k n in
          same_tensor (name "digit_batch noisy") oi ni;
          Alcotest.(check (array int)) (name "noisy labels") ol nl;
          let oi, oc = Oracle.air_batch k n and ni, nc = Data.air_batch k n in
          same_tensor (name "air_batch") oi ni;
          Alcotest.(check (array int)) (name "air counts") oc nc)
        [ 1; 2; 5; 17 ];
      same_tensor
        (Printf.sprintf "sprite key %d" ki)
        (Oracle.sprite k (ki mod 10))
        (Data.sprite k (ki mod 10));
      let oi, oc = Oracle.air_scene k and ni, nc = Data.air_scene k in
      same_tensor (Printf.sprintf "air_scene key %d" ki) oi ni;
      Alcotest.(check int) "air_scene count" oc nc)
    keys;
  List.iter
    (fun objs ->
      same_tensor "render_scene" (Oracle.render_scene objs) (Data.render_scene objs))
    [ []; [ (8, 0) ]; [ (8, 0); (8, 3) ]; [ (1, 2); (7, 2) ]; [ (0, 1); (9, 1); (4, 1) ] ];
  let raises f =
    match f () with _ -> false | exception Tensor.Shape_error _ -> true
  in
  Alcotest.(check bool) "empty digit batch raises" true
    (raises (fun () -> Data.digit_batch (Prng.key 1) 0)
    && raises (fun () -> Oracle.digit_batch (Prng.key 1) 0));
  Alcotest.(check bool) "empty air batch raises" true
    (raises (fun () -> Data.air_batch (Prng.key 1) 0)
    && raises (fun () -> Oracle.air_batch (Prng.key 1) 0));
  Alcotest.check_raises "bad digit" (Invalid_argument "Data.digit_glyph: 10") (fun () ->
      ignore (Data.digit_glyph 10))

(* ------------------------------------------------------------------ *)
(* Fixed-seed training fingerprint.                                    *)

(* FNV-1a over the little-endian bytes of each objective's bits. *)
let fnv1a h x =
  let h = ref h and b = bits x in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical b (8 * i)) 0xFFL in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h

(* Four AIR epochs with ENUM on presence and position (8 scenes,
   minibatch 4) and five batch-32 VAE steps: the per-epoch and per-step
   objectives of both runs, in order. Each objective after the first
   depends on every earlier gradient, so one flipped gradient bit
   anywhere changes the fingerprint. *)
let training_objectives () =
  let store = Store.create () in
  Air.register store (Prng.fold_in (Prng.key 7) 1);
  let images, _ = Data.air_batch (Prng.fold_in (Prng.key 7) 2) 8 in
  let optim = Optim.adam ~lr:1e-3 () and baselines = Air.make_baselines () in
  let air =
    List.init 4 (fun e ->
        fst
          (Air.train_epoch ~pres:Air.EN ~pos:Air.EN ~store ~optim ~baselines
             ~objective:Air.Elbo ~images ~batch:4
             (Prng.fold_in (Prng.key 7) (100 + e))))
  in
  let _, reports = Vae.train ~steps:5 ~batch:32 (Prng.key 7) in
  air @ List.map (fun r -> r.Train.objective) reports

let test_training_fingerprint () =
  let fp = List.fold_left fnv1a 0xcbf29ce484222325L (training_objectives ()) in
  Alcotest.(check string) "fingerprint" "0x9bb56dff2ce82249" (Printf.sprintf "0x%016Lx" fp)

(* An AIR-ENUM step sweeps strictly fewer nodes than it records: the
   placement matrices, observed image and distribution constants are
   inactive and never reached by the reverse sweep. *)
let test_air_sweep_pruned () =
  let store = Store.create () in
  Air.register store (Prng.key 3);
  let images, _ = Data.air_batch (Prng.key 4) 1 in
  let image = Tensor.slice0 images 0 in
  let baselines = Air.make_baselines () in
  let frame = Store.Frame.make store in
  let nodes0 = Ad.node_count () and swept0 = Ad.swept_nodes () in
  let s =
    Adev.expectation
      (Objectives.elbo ~model:(Air.model frame image)
         ~guide:(Air.guide ~pres:Air.EN ~pos:Air.EN ~baselines frame image))
      (Prng.key 5)
  in
  Ad.backward s;
  let recorded = Ad.node_count () - nodes0 and swept = Ad.swept_nodes () - swept0 in
  Alcotest.(check bool)
    (Printf.sprintf "swept %d < recorded %d" swept recorded)
    true
    (swept > 0 && swept < recorded)

let suites =
  [ ( "golden",
      [ Alcotest.test_case "tensor draws = original" `Quick test_tensor_draws;
        Alcotest.test_case "data generators = original" `Quick test_data;
        Alcotest.test_case "training fingerprint" `Quick test_training_fingerprint;
        Alcotest.test_case "AIR sweep pruned" `Quick test_air_sweep_pruned ] ) ]

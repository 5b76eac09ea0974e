(* Kernel replays: the tensor calls a workload makes, re-run alone at the
   workload's exact shapes through the public Tensor entry points, with
   their work counted from the shapes. FLOPs count a multiply-add as
   two; bytes are computed (each operand read once, the result written
   once, 8 bytes per float), not measured. *)

open Common

type op = { run : unit -> unit; flop : float; bytes : float }

let f = float_of_int
let op run ~flop ~elems = { run; flop; bytes = 8. *. elems }

(* [m x k] by [k x n]: 2mkn FLOPs, mk + kn + mn floats moved. *)
let gemm_op run ~m ~k ~n =
  op run ~flop:(2. *. f m *. f k *. f n)
    ~elems:(f (m * k) +. f (k * n) +. f (m * n))

type replay = {
  ms : float;  (** median wall time of one pass over every op *)
  calls : int;
  mflop : float;
  mb : float;
}

let replay ~reps ops =
  let pass () = List.iter (fun o -> o.run ()) ops in
  { ms = 1000. *. median_time ~reps pass;
    calls = List.length ops;
    mflop = sum (List.map (fun o -> o.flop) ops) /. 1e6;
    mb = sum (List.map (fun o -> o.bytes) ops) /. 1e6 }

let keep x = ignore (Sys.opaque_identity x)

(* The GEMMs of one batch-[batch] VAE gradient step: for each of the
   five dense layers x[n x in] * w[in x out], the forward product and
   both backward products (the tape calls every vjp, including the one
   into the constant image batch). The first layer's input is the
   step's real binary image batch, so the kernels' zero-skip sees the
   same sparsity as in training. *)
let vae_gemms ~batch key =
  let n = batch in
  let images, _ = Data.digit_batch key n in
  let layers =
    [ (Data.sprite_dim, Vae.hidden_dim); (Vae.hidden_dim, Vae.latent_dim);
      (Vae.hidden_dim, Vae.latent_dim); (Vae.latent_dim, Vae.hidden_dim);
      (Vae.hidden_dim, Data.sprite_dim) ]
  in
  List.concat
    (List.mapi
       (fun i (din, dout) ->
         let k j = Prng.fold_in key ((10 * i) + j) in
         let x =
           if i = 0 then images else Tensor.softplus (Prng.normal_tensor (k 0) [| n; din |])
         in
         let w = Prng.normal_tensor (k 1) [| din; dout |] in
         let g = Prng.normal_tensor (k 2) [| n; dout |] in
         [ gemm_op (fun () -> keep (Tensor.matmul x w)) ~m:n ~k:din ~n:dout;
           gemm_op (fun () -> keep (Tensor.matmul_t g w)) ~m:n ~k:dout ~n:din;
           gemm_op (fun () -> keep (Tensor.t_matmul x g)) ~m:din ~k:n ~n:dout ])
       layers)

(* The tensor calls of one AIR image with both objects present, at
   AIR's shapes: the encoder trunk and the four heads per object, the
   patch decoder (code 4 -> 16 -> 36), the 36 x 256 placement product,
   the probabilistic-OR composition, and for every vector-matrix
   product the two backward products the tape runs (including the
   outer product into the constant placement matrix). *)
let air_small_ops key =
  let d = Data.canvas_dim and p = Data.patch_side * Data.patch_side in
  let trunk = 48 and code = Air.code_dim and hid = 16 in
  let t i shape = Prng.normal_tensor (Prng.fold_in key i) shape in
  let vec_mat i din dout =
    let x = t i [| din |] and w = t (i + 1) [| din; dout |] in
    let g = t (i + 2) [| dout |] and b = t (i + 3) [| dout |] in
    let y = Tensor.matmul x w in
    [ gemm_op (fun () -> keep (Tensor.matmul x w)) ~m:1 ~k:din ~n:dout;
      op (fun () -> keep (Tensor.add y b)) ~flop:(f dout) ~elems:(3. *. f dout);
      gemm_op (fun () -> keep (Tensor.matmul w g)) ~m:din ~k:dout ~n:1;
      op (fun () -> keep (Tensor.outer x g)) ~flop:(f (din * dout))
        ~elems:(f din +. f dout +. f (din * dout)) ]
  in
  let eltwise i n =
    let a = t i [| n |] and b = t (i + 1) [| n |] in
    let bin fn = op (fun () -> keep (fn a b)) ~flop:(f n) ~elems:(3. *. f n) in
    let un fn = op (fun () -> keep (fn a)) ~flop:(f n) ~elems:(2. *. f n) in
    (bin, un)
  in
  (* One-hot like AIR's own placement matrices, so zero-skipping
     kernels see the same sparsity. *)
  let placement =
    let r0, c0 = Data.position_offset 0 in
    Tensor.init [| p; d |] (fun ix ->
        let pr = ix.(0) / Data.patch_side and pc = ix.(0) mod Data.patch_side in
        if ix.(1) = ((r0 + pr) * Data.canvas_side) + c0 + pc then 1. else 0.)
  in
  let place i =
    let patch = t i [| p |] and m = placement in
    let g = t (i + 1) [| d |] in
    [ gemm_op (fun () -> keep (Tensor.matmul patch m)) ~m:1 ~k:p ~n:d;
      gemm_op (fun () -> keep (Tensor.matmul m g)) ~m:p ~k:d ~n:1;
      op (fun () -> keep (Tensor.outer patch g)) ~flop:(f (p * d))
        ~elems:(f p +. f d +. f (p * d)) ]
  in
  let obj o =
    let base = 1000 * (o + 1) in
    let bin_c, _ = eltwise (base + 900) d in
    let _, un_h = eltwise (base + 910) hid in
    let _, un_p = eltwise (base + 920) p in
    List.concat
      [ vec_mat (base + 0) trunk 1; vec_mat (base + 10) trunk Data.num_positions;
        vec_mat (base + 20) trunk code; vec_mat (base + 30) trunk code;
        vec_mat (base + 40) code hid; [ un_h Tensor.softplus ];
        vec_mat (base + 50) hid p; [ un_p Tensor.sigmoid ]; place (base + 60);
        [ bin_c Tensor.add; bin_c Tensor.mul; bin_c Tensor.sub ] ]
  in
  let _, un_t = eltwise 10 trunk in
  vec_mat 0 d trunk @ [ un_t Tensor.softplus ] @ obj 0 @ obj 1

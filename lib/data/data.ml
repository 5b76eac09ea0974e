let sprite_side = 12
let sprite_dim = sprite_side * sprite_side
let canvas_side = 16
let canvas_dim = canvas_side * canvas_side
let patch_side = 6
let num_positions = 4
let max_objects = 2

(* Seven-segment digit rendering. Segments: a = top, b = top-right,
   c = bottom-right, d = bottom, e = bottom-left, f = top-left,
   g = middle. *)
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

(* Draw the glyph in a 10x6 box centered in the 12x12 sprite. *)
let render_glyph d =
  let segs = segments_of_digit d in
  let on seg = List.mem seg segs in
  let top = 1 and left = 3 in
  let h = 10 and w = 6 in
  Tensor.init [| sprite_side; sprite_side |] (fun ix ->
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

(* Nearest-neighbour downsample of the 12x12 glyph to 6x6. *)
let render_patch d =
  let g = render_glyph d in
  Tensor.init [| patch_side; patch_side |] (fun ix ->
      let r = ix.(0) * sprite_side / patch_side in
      let c = ix.(1) * sprite_side / patch_side in
      (* A patch cell is on when any covered source pixel is on. *)
      let any = ref 0. in
      for dr = 0 to (sprite_side / patch_side) - 1 do
        for dc = 0 to (sprite_side / patch_side) - 1 do
          if Tensor.get g [| r + dr; c + dc |] > 0.5 then any := 1.
        done
      done;
      !any)

(* The ten glyphs and patches, rendered once; the batch generators
   below copy pixels out of these row-major arrays. *)
let glyphs = Array.init 10 (fun d -> Tensor.to_array (render_glyph d))
let patches = Array.init 10 (fun d -> Tensor.to_array (render_patch d))

let check_digit d =
  if d < 0 || d > 9 then invalid_arg (Printf.sprintf "Data.digit_glyph: %d" d)

let digit_glyph d =
  check_digit d;
  Tensor.of_array [| sprite_side; sprite_side |] glyphs.(d)

let patch_glyph d =
  check_digit d;
  Tensor.of_array [| patch_side; patch_side |] patches.(d)

let thirds = [| 1.; 1.; 1. |]
let tenths = Array.make 10 1.

(* Pixel flips: [dst.(off + j)] flips when the [j]-th uniform of [key]
   is below [rate]. [u] is scratch of the image's size. *)
let flip_into ~u key rate dst off =
  Prng.fill_uniform key u;
  for j = 0 to Array.length u - 1 do
    if u.(j) < rate then dst.(off + j) <- 1. -. dst.(off + j)
  done

(* Writes the flattened [sprite ~noise key d] into [dst] at [off]: the
   glyph shifted by ([dr], [dc]) with zero fill, then flipped. *)
let sprite_into ~noise ~u key d dst off =
  let k1, rest = Prng.split key in
  let k2, k3 = Prng.split rest in
  let dr = Prng.categorical k1 thirds - 1 in
  let dc = Prng.categorical k2 thirds - 1 in
  let g = glyphs.(d) in
  for r = 0 to sprite_side - 1 do
    for c = 0 to sprite_side - 1 do
      let sr = r - dr and sc = c - dc in
      if sr >= 0 && sr < sprite_side && sc >= 0 && sc < sprite_side then
        dst.(off + (r * sprite_side) + c) <- g.((sr * sprite_side) + sc)
    done
  done;
  flip_into ~u k3 noise dst off

let sprite ?(noise = 0.02) key d =
  check_digit d;
  let u = Array.make sprite_dim 0. in
  Tensor.of_fill [| sprite_side; sprite_side |] (fun dst ->
      sprite_into ~noise ~u key d dst 0)

let digit_batch ?(noise = 0.02) key n =
  let ks = Prng.split_many key n in
  if n = 0 then raise (Tensor.Shape_error "Data.digit_batch: empty batch");
  let labels = Array.map (fun k -> Prng.categorical k tenths) ks in
  let u = Array.make sprite_dim 0. in
  let images =
    Tensor.of_fill [| n; sprite_dim |] (fun dst ->
        Array.iteri
          (fun i k ->
            sprite_into ~noise ~u (Prng.fold_in k 1) labels.(i) dst (i * sprite_dim))
          ks)
  in
  (images, labels)

let position_offset i =
  if i < 0 || i >= num_positions then
    invalid_arg (Printf.sprintf "Data.position_offset: %d" i);
  let step = canvas_side - patch_side in
  (i / 2 * step, i mod 2 * step)

(* Composites (digit, position) objects onto the zeroed canvas at
   [off] of [dst]. *)
let scene_into objs dst off =
  List.iter
    (fun (digit, pos) ->
      check_digit digit;
      let patch = patches.(digit) in
      let r0, c0 = position_offset pos in
      for r = 0 to patch_side - 1 do
        for c = 0 to patch_side - 1 do
          let p = patch.((r * patch_side) + c) in
          let i = off + ((r0 + r) * canvas_side) + (c0 + c) in
          (* Probabilistic OR keeps overlaps in [0, 1]. *)
          dst.(i) <- 1. -. ((1. -. dst.(i)) *. (1. -. p))
        done
      done)
    objs

let render_scene objs =
  Tensor.of_fill [| canvas_side; canvas_side |] (fun dst -> scene_into objs dst 0)

(* Writes one flattened scene into [dst] at [off]; returns its count. *)
let air_scene_into ~u key dst off =
  let k1, rest = Prng.split key in
  let k2, k3 = Prng.split rest in
  let count = Prng.categorical k1 (Array.make (max_objects + 1) 1.) in
  let positions = Prng.permutation k2 num_positions in
  let objs =
    List.init count (fun i ->
        let digit = Prng.categorical (Prng.fold_in k3 i) tenths in
        (digit, positions.(i)))
  in
  scene_into objs dst off;
  flip_into ~u (Prng.fold_in k3 99) 0.01 dst off;
  count

let air_scene key =
  let u = Array.make canvas_dim 0. in
  let count = ref 0 in
  let img =
    Tensor.of_fill [| canvas_dim |] (fun dst -> count := air_scene_into ~u key dst 0)
  in
  (img, !count)

let air_batch key n =
  let ks = Prng.split_many key n in
  if n = 0 then raise (Tensor.Shape_error "Data.air_batch: empty batch");
  let counts = Array.make n 0 in
  let u = Array.make canvas_dim 0. in
  let images =
    Tensor.of_fill [| n; canvas_dim |] (fun dst ->
        Array.iteri
          (fun i k -> counts.(i) <- air_scene_into ~u k dst (i * canvas_dim))
          ks)
  in
  (images, counts)

let as_square img =
  match Tensor.rank img with
  | 2 -> img
  | 1 ->
    let n = Tensor.size img in
    let side = int_of_float (Float.round (Float.sqrt (float_of_int n))) in
    Tensor.reshape [| side; side |] img
  | _ -> invalid_arg "Data: expected a rank-1 or rank-2 image"

let quadrant img q =
  let img = as_square img in
  let side = (Tensor.shape img).(0) in
  let half = side / 2 in
  let r0 = q / 2 * half and c0 = q mod 2 * half in
  Tensor.init [| half; half |] (fun ix ->
      Tensor.get img [| r0 + ix.(0); c0 + ix.(1) |])

let without_quadrant img q =
  let img = as_square img in
  let side = (Tensor.shape img).(0) in
  let half = side / 2 in
  let r0 = q / 2 * half and c0 = q mod 2 * half in
  let kept = ref [] in
  for r = side - 1 downto 0 do
    for c = side - 1 downto 0 do
      if not (r >= r0 && r < r0 + half && c >= c0 && c < c0 + half) then
        kept := Tensor.get img [| r; c |] :: !kept
    done
  done;
  Tensor.of_list1 !kept

type regression_datum = { ruggedness : float; in_africa : bool; log_gdp : float }

let regression_truth = (9., -1.8, -0.2, 0.35)

let regression_data key n =
  let a, ba, br, bar = regression_truth in
  Array.map
    (fun k ->
      let k1, rest = Prng.split k in
      let k2, k3 = Prng.split rest in
      let ruggedness = Prng.uniform_range k1 0. 6. in
      let in_africa = Prng.bernoulli k2 0.4 in
      let c = if in_africa then 1. else 0. in
      let mean = a +. (ba *. c) +. (br *. ruggedness) +. (bar *. c *. ruggedness) in
      { ruggedness; in_africa; log_gdp = Prng.normal_mean_std k3 mean 0.5 })
    (Prng.split_many key n)

let ascii img =
  let img = as_square img in
  let side = (Tensor.shape img).(0) in
  let buf = Buffer.create (side * (side + 1)) in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      let x = Tensor.get img [| r; c |] in
      Buffer.add_char buf
        (if x > 0.75 then '#' else if x > 0.35 then '+' else '.')
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* The repository benchmark. One run measures one workload:

     bench.exe --workload vae_train|air_enum|serve_chain
               --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics BENCHMARK.json lists,
   with --trace 1 the per-layer ones. Either way the last line of stdout
   is one JSON object {correct, attempted, failed, metrics}. See
   README.md. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "vae_train | air_enum | serve_chain");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0 end-to-end metrics, 1 per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  (* The program's default configuration: one domain. *)
  Parallel.set_domains 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted _ =
    Serving.stop_all ();
    Serving.clean_up ();
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let seconds = float_of_int (max 1 !seconds) and seed = !seed in
  let traced = !trace <> 0 in
  let training spec kind =
    if traced then Training.per_layer ~kind spec seed ~seconds
    else Training.end_to_end spec ~seconds
  in
  let result =
    match !workload with
    | "vae_train" -> training (Training.vae_spec seed) `Vae
    | "air_enum" -> training (Training.air_spec seed) `Air
    | "serve_chain" ->
      if traced then Serving.per_layer ~seed ~seconds else Serving.end_to_end ~seed ~seconds
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2
  in
  (* Every workload prints every listed metric; in the traced run a
     layer the workload bypasses reads 0. *)
  if traced then print_result ~listed:(listed_metrics "per_layer") ~missing:0. result
  else print_result ~listed:(listed_metrics "end_to_end") result

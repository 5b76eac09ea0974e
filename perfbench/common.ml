(* Shared plumbing: clock, order statistics, process memory, and the
   result line every workload prints. *)

let now = Unix.gettimeofday

(* Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Linear-interpolated quantile of a list, [q] in [0, 1]; nan if empty. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* Median of [reps] timings of [f], after one untimed warm-up call. *)
let median_time ~reps f =
  ignore (f ());
  median (List.init reps (fun _ -> fst (timed f)))

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Bit-level float equality, so NaN = NaN and -0. <> 0.: the traced
   run's objectives must match the untraced run's at this level. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One run's outcome: metric values by name, and its operations. *)
type result = {
  attempted : int;
  failed : int;  (** operations whose output check did not hold *)
  values : (string * float) list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

module J = Obs.Json

(* The metrics BENCHMARK.json lists under [key] ("end_to_end" or
   "per_layer"), as (name, unit), in order. The benchmark runs from the
   checkout's root, where the file lives. *)
let listed_metrics key =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let str k j = match J.member k j with Some (J.Str s) -> s | _ -> failwith ("BENCHMARK.json: no " ^ k) in
  match Result.map (J.member key) (J.parse text) with
  | Ok (Some (J.Arr ms)) -> List.map (fun j -> (str "name" j, str "unit" j)) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* Prints every listed metric by name with its unit, then the JSON
   result line. A value the run did not produce takes [missing] (a
   bypassed layer reads 0); with no default it is an error, as is a
   value BENCHMARK.json does not list. *)
let print_result ~listed ?missing r =
  List.iter
    (fun (k, _) -> if not (List.mem_assoc k listed) then failwith ("unlisted metric " ^ k))
    r.values;
  let value k =
    match (List.assoc_opt k r.values, missing) with
    | Some v, _ | None, Some v -> v
    | None, None -> failwith ("no value for " ^ k)
  in
  List.iter print_endline r.notes;
  List.iter (fun (k, u) -> Printf.printf "%-34s %14.6g %s\n" k (value k) u) listed;
  Printf.printf "%-34s %14d\n%-34s %14d\n" "ops_attempted" r.attempted "ops_failed"
    r.failed;
  let metrics =
    List.map (fun (k, u) -> (k, J.Obj [ ("value", J.Num (value k)); ("unit", J.Str u) ])) listed
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (r.failed = 0 && r.attempted > 0));
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ("metrics", J.Obj metrics) ]))

(* The repository benchmark: BOHM on four workloads, end to end on both
   runtimes and layer by layer.

     dune exec benchmark/main.exe -- [--seed S] [--quick] [--out PATH]
     dune exec benchmark/main.exe -- --workload W --seed S --seconds T --trace 0|1

   The first form runs every workload and reports both metric families;
   the second runs one workload and ends its output with one JSON line
   holding the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
   Each measurement phase runs in a fresh child process (this executable
   re-run with --child), one after another. Exit code 0 only when every
   correctness check passed. *)

module Costs = Bohm_runtime.Costs
open Bohm_benchmark

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields)
  ^ "}"

let json_num x = Printf.sprintf "%.17g" x

let json_metrics values =
  json_obj
    (List.map
       (fun ((m : Schema.metric), v) ->
         (m.name, json_obj [ ("value", json_num v); ("unit", json_str m.unit) ]))
       values)

let cost_table () =
  Costs.defaults ();
  Costs.
    [
      ("cache_hit", !cache_hit);
      ("dram_read", !dram_read);
      ("coherence_read", !coherence_read);
      ("store_owned", !store_owned);
      ("dram_write", !dram_write);
      ("line_transfer", !line_transfer);
      ("atomic_rmw", !atomic_rmw);
      ("relax_base", !relax_base);
      ("bytes_per_cycle", !bytes_per_cycle);
      ("spawn_cost", !spawn_cost);
      ("recency_window", !recency_window);
      ("cc_routed_dispatch", !cc_routed_dispatch);
      ("cc_route_append", !cc_route_append);
      ("cc_route_merge", !cc_route_merge);
      ("cc_insert_recycled", !cc_insert_recycled);
      ("cc_insert_slab", !cc_insert_slab);
      ("cc_rebalance", !cc_rebalance);
      ("slab_retire", !slab_retire);
      ("exec_waiter_register", !exec_waiter_register);
      ("exec_wake_push", !exec_wake_push);
      ("exec_park", !exec_park);
      ("shard_route", !shard_route);
      ("shard_vote", !shard_vote);
    ]

(* ------------------------------------------------------------------ *)
(* Child processes *)

let run_child args : Phases.result =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let data = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (Marshal.from_string data 0 : Phases.result)
  | _ ->
      {
        Phases.empty with
        attempted = 1;
        failed = 1;
        errors = [ Printf.sprintf "child %s died" (String.concat " " args) ];
      }

let child_main phase (w : Workloads.t) size ~seed ~budget ~e2e ~layers =
  let deadline = Unix.gettimeofday () +. budget in
  let result =
    try Phases.run phase w size ~seed ~deadline ~e2e ~layers
    with e ->
      {
        Phases.empty with
        attempted = 1;
        failed = 1;
        errors = [ Phases.phase_name phase ^ ": " ^ Printexc.to_string e ];
      }
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout result [];
  flush stdout

(* Share of --seconds each timed phase may extend its trials into. *)
let share = function
  | Phases.Sim_runs -> 0.35
  | Real_runs -> 0.45
  | Batch_latency -> 0.2
  | Micro_ops -> 0.

let measure (w : Workloads.t) ~seed ~seconds ~quick ~e2e ~layers =
  let phases =
    [ Phases.Sim_runs; Real_runs ]
    @ (if e2e then [ Phases.Batch_latency ] else [])
    @ if layers then [ Phases.Micro_ops ] else []
  in
  List.fold_left
    (fun acc phase ->
      Printf.printf "  %s %s phase ...\n%!" w.name (Phases.phase_name phase);
      let args =
        [
          "--child"; Phases.phase_name phase;
          "--workload"; w.name;
          "--seed"; string_of_int seed;
          "--budget"; Printf.sprintf "%g" (share phase *. float_of_int seconds);
        ]
        @ (if quick then [ "--quick" ] else [])
        @ (if e2e then [ "--e2e" ] else [])
        @ if layers then [ "--layers" ] else []
      in
      Phases.merge acc (run_child args))
    Phases.empty phases

(* ------------------------------------------------------------------ *)
(* Reporting *)

type report = {
  workload : Workloads.t;
  result : Phases.result;
  e2e : (Schema.metric * float) list;
  layer : (Schema.metric * float) list;
  errors : string list;
}

let assemble workload (result : Phases.result) ~e2e ~layers =
  let e2e_vals, e2e_errs =
    if e2e then Phases.select Schema.end_to_end (Phases.end_to_end result.samples)
    else ([], [])
  in
  let layer_vals, layer_errs =
    if layers then Phases.select Schema.per_layer result.layer else ([], [])
  in
  {
    workload;
    result;
    e2e = e2e_vals;
    layer = layer_vals;
    errors = result.errors @ e2e_errs @ layer_errs;
  }

let fail_frac r =
  float_of_int r.result.failed /. float_of_int (max 1 r.result.attempted)

let print_report r =
  let n name =
    List.length (Option.value (List.assoc_opt name r.result.samples) ~default:[])
  in
  let note (m : Schema.metric) =
    match m.name with
    | "sim_tput" | "sim_host_tps" -> Printf.sprintf "median of %d" (n "sim_tput")
    | "real_tput" -> Printf.sprintf "median of %d" (n "real_tput")
    | "setup_s" -> Printf.sprintf "median of %d" (n "setup_s")
    | "real_batch_ms_p50" | "real_batch_ms_p90" ->
        let k = n "batch_ms" in
        Printf.sprintf "n=%d, highest reportable percentile %s" k
          (match Summary.reportable_percentile k with
          | Some p -> Printf.sprintf "p%g" p
          | None -> "none")
    | _ -> ""
  in
  let line (m : Schema.metric) v =
    Printf.printf "    %-34s %16.6g %-10s %s\n" m.name v m.unit (note m)
  in
  Printf.printf "  %s\n" r.workload.name;
  if r.e2e <> [] then begin
    Printf.printf "   end to end (tracing off):\n";
    List.iter (fun (m, v) -> line m v) r.e2e;
    Printf.printf "    %-34s %16.6g %-10s %d of %d txns\n" "fail_frac" (fail_frac r)
      "ratio" r.result.failed r.result.attempted
  end;
  if r.layer <> [] then begin
    Printf.printf "   per layer:\n";
    List.iter (fun (m, v) -> line m v) r.layer
  end;
  List.iter (Printf.printf "   ERROR %s\n") r.errors;
  flush stdout

let correct r = r.result.failed = 0 && r.errors = []

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 41 and seconds = ref 0 in
  let trace = ref None and quick = ref false and out = ref None in
  let child = ref None and budget = ref 0. and e2e = ref false in
  let layers = ref false in
  let usage = "main.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out PATH]" in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "S input seed (default 41)");
      ( "--seconds",
        Arg.Set_int seconds,
        "T let timed phases add trials for about T seconds (default 0: minimum trials)" );
      ( "--trace",
        Arg.Int (fun t -> trace := Some t),
        "0|1 report only end-to-end (0) or per-layer (1) metrics" );
      ("--quick", Arg.Set quick, " every workload at 1/10 size");
      ("--out", Arg.String (fun p -> out := Some p), "PATH also write the report as JSON");
      ("--child", Arg.String (fun p -> child := Some p), "PHASE (internal) run one phase");
      ("--budget", Arg.Set_float budget, "S (internal) seconds a child may add trials for");
      ("--e2e", Arg.Set e2e, " (internal) measure end-to-end metrics");
      ("--layers", Arg.Set layers, " (internal) measure per-layer metrics");
    ]
  in
  let die msg =
    prerr_endline msg;
    exit 2
  in
  Arg.parse specs (fun a -> die ("unexpected argument " ^ a)) usage;
  let find name =
    match Workloads.find name with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %s (one of: %s)" name
             (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))
  in
  let size = if !quick then Phases.quick else Phases.full in
  match !child with
  | Some p -> (
      match (Phases.phase_of_name p, !workload) with
      | Some phase, Some name ->
          child_main phase (find name) size ~seed:!seed ~budget:!budget ~e2e:!e2e
            ~layers:!layers
      | _ -> die "bad --child invocation")
  | None ->
      let e2e, layers =
        match !trace with
        | None -> (true, true)
        | Some 0 -> (true, false)
        | Some 1 -> (false, true)
        | Some _ -> die "--trace takes 0 or 1"
      in
      let workloads =
        match !workload with None -> Workloads.all | Some name -> [ find name ]
      in
      let costs = cost_table () in
      Printf.printf "BOHM benchmark: seed %d, %s size, --seconds %d\n" !seed
        (if !quick then "quick" else "full")
        !seconds;
      Printf.printf "Sim cost table (cycles): %s\n%!"
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) costs));
      let reports =
        List.map
          (fun w ->
            let result =
              measure w ~seed:!seed ~seconds:!seconds ~quick:!quick ~e2e ~layers
            in
            let r = assemble w result ~e2e ~layers in
            print_report r;
            r)
          workloads
      in
      let ok = List.for_all correct reports in
      let attempted = List.fold_left (fun a r -> a + r.result.attempted) 0 reports in
      let failed = List.fold_left (fun a r -> a + r.result.failed) 0 reports in
      let per_workload r = json_metrics (r.e2e @ r.layer) in
      (match !out with
      | None -> ()
      | Some path ->
          let doc =
            json_obj
              [
                ("seed", string_of_int !seed);
                ("quick", string_of_bool !quick);
                ("seconds", string_of_int !seconds);
                ("costs", json_obj (List.map (fun (k, v) -> (k, string_of_int v)) costs));
                ("correct", string_of_bool ok);
                ("attempted", string_of_int attempted);
                ("failed", string_of_int failed);
                ( "workloads",
                  json_obj
                    (List.map
                       (fun r ->
                         ( r.workload.name,
                           json_obj
                             [
                               ("attempted", string_of_int r.result.attempted);
                               ("failed", string_of_int r.result.failed);
                               ("fail_frac", json_num (fail_frac r));
                               ( "samples",
                                 json_obj
                                   (List.map
                                      (fun (k, v) -> (k, string_of_int (List.length v)))
                                      r.result.samples) );
                               ("end_to_end", json_metrics r.e2e);
                               ("per_layer", json_metrics r.layer);
                               ("errors", "[" ^ String.concat ", " (List.map json_str r.errors) ^ "]");
                             ] ))
                       reports) );
              ]
          in
          Out_channel.with_open_text path (fun oc -> output_string oc (doc ^ "\n")));
      let metrics =
        match reports with
        | [ r ] -> per_workload r
        | _ -> json_obj (List.map (fun r -> (r.workload.name, per_workload r)) reports)
      in
      print_endline
        (json_obj
           [
             ("correct", string_of_bool ok);
             ("attempted", string_of_int (max 1 attempted));
             ("failed", string_of_int failed);
             ("metrics", metrics);
           ]);
      if not ok then exit 1

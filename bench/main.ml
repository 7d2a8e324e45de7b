(* The experiments front end: the one command that regenerates the
   paper's tables and figures.

   With no arguments, regenerates every table and figure of the paper's
   evaluation on the simulated multicore machine, runs the ablation
   benches, and finishes with the Bechamel component micro-benchmarks.
   Pass experiment names (fig4 fig4-shards fig5 fig6 fig7 fig8 tab9 fig10
   ablation-batch ablation-annotation ablation-gc ablation-cc-split
   ablation-preprocess ablation-cc-rebalance flash-crowd latency-profile
   critical-path mvto micro sanitize)
   to run a subset; an unknown name prints the usage and exits 2.
   `sanitize --quick` is the correctness gate `dune build @lint` ends with.
   --quick shrinks sweeps for smoke runs; --scale=F multiplies
   transaction counts; --json=PATH also writes every experiment table of
   the run (with per-column throughput ceilings) as one JSON document. *)

module Experiments = Bohm_harness.Experiments
module Runner = Bohm_harness.Runner
module Stats = Bohm_txn.Stats
module Ycsb = Bohm_workload.Ycsb
module Table = Bohm_storage.Table
module Check = Bohm_harness.Serialization_check
module Analysis = Bohm_analysis.Report
module Config = Bohm_core.Config

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--scale=F] [--json=PATH] [experiment ...]";
  prerr_endline "experiments:";
  List.iter
    (fun (name, _) -> prerr_endline ("  " ^ name))
    Experiments.experiments;
  prerr_endline "  micro";
  prerr_endline
    "  sanitize (every engine and BOHM shape under the full sanitizer \
     suite; non-zero exit on a diagnostic or a lost commit)";
  exit 2

(* The one correctness gate of the experiments front end: every row
   runs fully sanitized — footprint shim, race tracing, chain audit — and
   fails on any diagnostic or if it commits fewer transactions than it
   was given. *)
let sanitize ~scale ~quick =
  (* Every engine on the serialization-check workload: contended RMWs
     plus pure reads, the access mix that exercises every code path the
     checkers watch. *)
  let rows = 48 in
  let count =
    max 60 (int_of_float ((if quick then 120. else 400.) *. scale))
  in
  let check_spec =
    {
      Runner.tables =
        [| Table.make ~tid:0 ~name:"sanitize" ~rows ~record_bytes:8 |];
      init = Check.initial_value;
    }
  in
  let check_txns =
    Check.txns
      (Check.make_workload ~rows ~txns:count ~rmws_per_txn:2 ~reads_per_txn:2
         ~seed:11)
  in
  (* BOHM's multi-pipeline shapes on YCSB streams. Two complete
     per-shard pipelines with a 10% cross-shard mix: routed footprint
     slices, epoch-aligned batches and the per-batch vote round, with
     cross-shard reads traced. Live adaptive repartitioning under a
     migrating flash crowd: small batches so map publications fire
     mid-run, and the chain audit re-derives every version's owner
     through the per-batch maps. *)
  let ycsb_rows = 100_000 in
  let ycsb_spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let ycsb_count = max 500 (int_of_float (500. *. scale)) in
  let sharded =
    Ycsb.generate_sharded ~rows:ycsb_rows ~theta:0.0 ~count:ycsb_count
      ~seed:41 ~shards:2 ~cross_fraction:0.1 (Ycsb.rmw_profile 10)
  in
  let flash =
    Ycsb.generate_flash_crowd ~rows:ycsb_rows ~count:ycsb_count ~seed:41
      ~phases:3 ~hot_keys:256 ~hot_frac:0.9
      (Ycsb.mixed_profile ~rmws:2 ~reads:8)
  in
  (* Six threads per engine; BOHM additionally at cc=4/exec=8 with the
     preprocessing stage off (scan dispatch) and on (routed dispatch,
     steal cursor). Parking engages only at 8+ execution threads, so
     the cc=4/exec=8 runs trace the waiter-registration/seal/ready-queue
     protocol (and the dangling-waiter audit); the 6-thread run covers
     the retry path. *)
  let cc4_exec8 = Config.make ~cc_threads:4 ~exec_threads:8 in
  let bohm label cfg spec txns = (label, Runner.Bohm cfg, spec, txns) in
  let runs =
    List.map
      (fun e -> (Runner.name e, e, check_spec, check_txns))
      (Runner.all 6 @ [ Runner.Mvto 6 ])
    @ [
        bohm "Bohm-pre" (cc4_exec8 ()) check_spec check_txns;
        bohm "Bohm+pre" (cc4_exec8 ~preprocess:true ()) check_spec check_txns;
        bohm "Bohm-2shard"
          (cc4_exec8 ~shards:2 ~preprocess:true ())
          ycsb_spec sharded;
        bohm "Bohm-flash"
          (cc4_exec8 ~batch_size:100 ~preprocess:true ())
          ycsb_spec flash;
      ]
  in
  let failures = ref 0 in
  List.iter
    (fun (label, engine, spec, txns) ->
      let stats, report = Runner.run_sim_sanitized engine spec txns in
      let clean = Analysis.is_clean report in
      let ok = clean && stats.Stats.committed >= Array.length txns in
      Printf.printf "sanitize %-11s %s (%d/%d committed%s)\n" label
        (if ok then "PASS" else "FAIL")
        stats.Stats.committed (Array.length txns)
        (match List.assoc_opt "rebalances" stats.Stats.extra with
        | Some r -> Printf.sprintf ", %.0f rebalances" r
        | None -> "");
      if not clean then print_endline (Analysis.to_string report);
      if not ok then incr failures)
    runs;
  if !failures > 0 then begin
    Printf.eprintf "sanitize: %d run(s) failed\n" !failures;
    exit 1
  end

let () =
  let quick = ref false in
  let scale = ref 1.0 in
  let json = ref None in
  let selected = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if arg = "--quick" then quick := true
        else if String.length arg > 8 && String.sub arg 0 8 = "--scale=" then
          scale := float_of_string (String.sub arg 8 (String.length arg - 8))
        else if String.length arg > 7 && String.sub arg 0 7 = "--json=" then
          json := Some (String.sub arg 7 (String.length arg - 7))
        else if arg = "--help" || arg = "-h" then usage ()
        else selected := arg :: !selected)
    Sys.argv;
  let selected = List.rev !selected in
  (* Fail on an unwritable JSON path before the runs, not after. *)
  (match !json with
  | Some path -> (
      try close_out (open_out path)
      with Sys_error msg ->
        prerr_endline ("cannot write --json path: " ^ msg);
        exit 2)
  | None -> ());
  let t0 = Unix.gettimeofday () in
  (* Each name's printed series, for --json. *)
  let run_one name =
    if name = "micro" then (Micro.run (); [])
    else if name = "sanitize" then (sanitize ~scale:!scale ~quick:!quick; [])
    else
      match List.assoc_opt name Experiments.experiments with
      | Some f ->
          let series = f ~scale:!scale ~quick:!quick () in
          List.iter Experiments.print series;
          series
      | None ->
          prerr_endline ("unknown experiment: " ^ name);
          usage ()
  in
  let series =
    match selected with
    | [] ->
        let series = Experiments.run_all ~scale:!scale ~quick:!quick () in
        Micro.run ();
        series
    | names -> List.concat_map run_one names
  in
  (match !json with
  | Some path ->
      Bohm_harness.Report.json_write ~path series;
      Printf.printf "\nWrote JSON results to %s\n" path
  | None -> ());
  Printf.printf "\nTotal bench wall time: %.1fs\n" (Unix.gettimeofday () -. t0)

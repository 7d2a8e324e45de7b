(* Command-line front-end over the experiment harness.

   bohm_cli run     — one engine x workload configuration on the simulator
   bohm_cli analyze — static footprint certifier + batch conflict-graph
                      report, optionally cross-validated against a run
   bohm_cli report  — critical path of a saved trace
   bohm_cli tune    — CC/execution thread-split search

   The paper's figures and tables are regenerated by bench/main.exe. *)

open Cmdliner

module Stats = Bohm_txn.Stats
module Ycsb = Bohm_workload.Ycsb
module Smallbank = Bohm_workload.Smallbank
module Ycsb_ir = Bohm_workload.Ycsb_ir
module Smallbank_ir = Bohm_workload.Smallbank_ir
module Absint = Bohm_analysis_static.Absint
module Certify = Bohm_analysis_static.Certify
module Conflict_graph = Bohm_analysis_static.Conflict_graph
module Sanitizer_report = Bohm_analysis.Report
module Runner = Bohm_harness.Runner
module Report = Bohm_harness.Report
module Experiments = Bohm_harness.Experiments

(* --- shared converters --- *)

(* Numeric flags are range-checked as they are parsed, so a value out of
   range is a usage error naming the flag, not an exception from inside
   the run. *)
let checked conv what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least lo =
  checked Arg.int (Printf.sprintf "an integer >= %d" lo) (fun v -> v >= lo)

let shard_count =
  let hi = Bohm_core.Config.max_shards in
  checked Arg.int
    (Printf.sprintf "an integer in [1, %d]" hi)
    (fun v -> v >= 1 && v <= hi)

let theta_conv =
  checked Arg.float "a number in [0, 1)" (fun v -> v >= 0. && v < 1.)

(* An engine named on the command line, completed by the run: BOHM with
   the config its flags build, a baseline with its thread count. *)
let engine_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "bohm" -> Ok (fun bohm _ -> Runner.Bohm bohm)
    | "hekaton" -> Ok (fun _ t -> Runner.Hekaton t)
    | "si" | "snapshot" -> Ok (fun _ t -> Runner.Si t)
    | "occ" | "silo" -> Ok (fun _ t -> Runner.Occ t)
    | "2pl" | "locking" -> Ok (fun _ t -> Runner.Twopl t)
    | "mvto" -> Ok (fun _ t -> Runner.Mvto t)
    | _ -> Error (`Msg ("unknown engine: " ^ s ^ " (bohm|hekaton|si|occ|2pl|mvto)"))
  in
  let print fmt e =
    Format.pp_print_string fmt (Runner.name (e (Bohm_core.Config.make ()) 1))
  in
  Arg.conv (parse, print)

type workload_kind = W_10rmw | W_2rmw8r | W_readonly_mix | W_smallbank

let workload_name = function
  | W_10rmw -> "10rmw"
  | W_2rmw8r -> "2rmw8r"
  | W_readonly_mix -> "readonly-mix"
  | W_smallbank -> "smallbank"

let workload_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "10rmw" | "ycsb-10rmw" -> Ok W_10rmw
    | "2rmw8r" | "ycsb-2rmw8r" -> Ok W_2rmw8r
    | "readonly-mix" -> Ok W_readonly_mix
    | "smallbank" -> Ok W_smallbank
    | _ ->
        Error
          (`Msg
            ("unknown workload: " ^ s
           ^ " (10rmw|2rmw8r|readonly-mix|smallbank)"))
  in
  let print fmt w = Format.pp_print_string fmt (workload_name w) in
  Arg.conv (parse, print)

(* The YCSB profile of the two update workloads. *)
let ycsb_profile = function
  | W_2rmw8r -> Ycsb.mixed_profile ~rmws:2 ~reads:8
  | _ -> Ycsb.rmw_profile 10

(* Flags can each be in range and still conflict. A YCSB transaction
   draws its rows distinct by rejection, so a table with fewer rows than
   one transaction's footprint -- or, sharded, a shard owning fewer --
   would never finish generating. These checks run on the parsed flags
   and fail as a usage error naming them (exit 124). *)
let usage_error fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let or_usage check body =
  match check with Ok () -> `Ok (body ()) | Error msg -> `Error (true, msg)

(* Distinct rows one transaction of [w] draws (SmallBank copes with a
   single customer). *)
let footprint_rows = function
  | W_smallbank -> 1
  | w ->
      let p = ycsb_profile w in
      p.Ycsb.rmws + p.Ycsb.reads

let check_rows w ~rows ~shards =
  let need = footprint_rows w in
  if rows < need then
    usage_error
      "--rows %d is too few for --workload %s: each transaction draws %d \
       distinct rows"
      rows (workload_name w) need
  else
    match w with
    | (W_10rmw | W_2rmw8r) when shards > 1 ->
        (* [generate_sharded] confines a transaction to its home shard, so
           every shard must own [need] rows. Stops as soon as all do. *)
        let owned = Array.make shards 0 in
        let short = ref shards in
        let row = ref 0 in
        while !short > 0 && !row < rows do
          let key = Bohm_txn.Key.make ~table:0 ~row:!row in
          let s = Bohm_txn.Key.shard_of ~shards key in
          owned.(s) <- owned.(s) + 1;
          if owned.(s) = need then decr short;
          incr row
        done;
        if !short = 0 then Ok ()
        else
          usage_error
            "--rows %d is too few for --shards %d on --workload %s: every \
             shard must own %d rows"
            rows shards (workload_name w) need
    | _ -> Ok ()

(* A workload kind's table spec and closure transactions. [shards > 1]
   draws the YCSB update streams sharded, [cross_fraction] of them
   spanning two shards. *)
let generate w ~rows ~theta ~count ~seed ?(shards = 1) ?(cross_fraction = 0.)
    () =
  let ycsb = Runner.ycsb_spec ~rows ~record_bytes:1000 in
  match w with
  | W_10rmw | W_2rmw8r when shards > 1 ->
      ( ycsb,
        Ycsb.generate_sharded ~rows ~theta ~count ~seed ~shards ~cross_fraction
          (ycsb_profile w) )
  | W_10rmw | W_2rmw8r ->
      (ycsb, Ycsb.generate ~rows ~theta ~count ~seed (ycsb_profile w))
  | W_readonly_mix ->
      ( ycsb,
        Ycsb.generate_mix ~rows ~read_only_fraction:0.01 ~scan:1000
          ~update_profile:(Ycsb.rmw_profile 10) ~theta ~count ~seed )
  | W_smallbank ->
      ( Runner.smallbank_spec ~customers:rows,
        Smallbank.generate ~customers:rows ~count ~seed ~spin:4_000 () )

(* The IR twin of [generate w]'s transactions: same seed, same draws. *)
let generate_ir w ~rows ~theta ~count ~seed =
  match w with
  | W_10rmw | W_2rmw8r ->
      Ycsb_ir.generate ~rows ~theta ~count ~seed (ycsb_profile w)
  | W_readonly_mix ->
      Ycsb_ir.generate_mix ~rows ~read_only_fraction:0.01 ~scan:1000
        ~update_profile:(Ycsb.rmw_profile 10) ~theta ~count ~seed
  | W_smallbank ->
      Smallbank_ir.generate ~customers:rows ~count ~seed ~spin:4_000 ()

(* --- run command --- *)

let run_cmd =
  let engine =
    Arg.(value & opt engine_conv (fun bohm _ -> Runner.Bohm bohm) & info [ "e"; "engine" ] ~doc:"Engine: bohm, hekaton, si, occ, 2pl or mvto.")
  in
  let workload =
    Arg.(value & opt workload_conv W_10rmw & info [ "w"; "workload" ] ~doc:"Workload: 10rmw, 2rmw8r, readonly-mix or smallbank.")
  in
  let threads =
    Arg.(value & opt (at_least 1) 8 & info [ "t"; "threads" ] ~doc:"Simulated threads (per shard when --shards > 1).")
  in
  let shards =
    Arg.(
      value & opt shard_count 1
      & info [ "shards" ]
          ~doc:
            "BOHM shard count: each shard runs a complete pipeline \
             (CC partitions, execution pool) over its slice of the key \
             space, all sharing one version store; batches commit through \
             one deterministic cross-shard vote round.")
  in
  let cross_shard_pct =
    Arg.(
      value
      & opt
          (checked float "a percentage in [0, 100]" (fun v ->
               v >= 0. && v <= 100.))
          10.0
      & info [ "cross-shard-pct" ]
          ~doc:
            "Percentage of YCSB transactions spanning two shards (only \
             meaningful with --shards > 1 on the 10rmw/2rmw8r workloads; \
             the rest are confined to one shard).")
  in
  let theta =
    Arg.(value & opt theta_conv 0.0 & info [ "theta" ] ~doc:"Zipfian contention parameter (YCSB).")
  in
  let rows =
    Arg.(value & opt (at_least 1) 100_000 & info [ "rows" ] ~doc:"Table rows (YCSB) / customers (SmallBank).")
  in
  let count =
    Arg.(value & opt (at_least 0) 10_000 & info [ "n"; "txns" ] ~doc:"Transactions to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let cc_fraction =
    Arg.(
      value
      & opt (checked float "a fraction in (0, 1)" (fun v -> v > 0. && v < 1.)) 0.25
      & info [ "cc-fraction" ] ~doc:"Fraction of threads for BOHM's CC layer.")
  in
  let batch =
    Arg.(value & opt (at_least 1) 1000 & info [ "batch" ] ~doc:"BOHM batch size.")
  in
  let no_gc = Arg.(value & flag & info [ "no-gc" ] ~doc:"Disable BOHM garbage collection.") in
  let no_annotation =
    Arg.(value & flag & info [ "no-annotation" ] ~doc:"Disable BOHM's read-annotation optimization.")
  in
  let preprocess =
    Arg.(
      value & flag
      & info [ "preprocess" ]
          ~doc:"Enable BOHM's pipelined pre-processing stage (paper 3.2.2).")
  in
  let no_cc_rebalance =
    Arg.(
      value & flag
      & info [ "no-cc-rebalance" ]
          ~doc:
            "Disable adaptive CC repartitioning (epoch-versioned partition \
             maps rebalanced between batches; inert anyway unless \
             $(b,--preprocess) is on). Off pins the static hash assignment.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Record pipeline phase spans and write a Chrome trace-event \
             JSON file to $(docv) (loadable in Perfetto / chrome://tracing).")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"PATH"
          ~doc:
            "Record the run and write the per-batch timeline (makespan, \
             per-stage durations, commit/steal/wakeup counts, slab \
             occupancy, CC imbalance, vote latencies) as JSONL to $(docv). \
             With $(b,--trace) the same records also ride the trace file \
             as Chrome counter tracks.")
  in
  let latency =
    Arg.(
      value & flag
      & info [ "latency" ]
          ~doc:
            "Record per-transaction latency histograms and print per-phase \
             p50/p95/p99 (cycles on the simulator).")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run under the full sanitizer suite (footprint shim, race \
             detector, version-chain audit) and exit nonzero on any \
             diagnostic.")
  in
  let action engine workload threads shards cross_shard_pct theta rows count
      seed cc_fraction batch no_gc no_annotation preprocess no_cc_rebalance
      trace timeline latency sanitize =
    or_usage (check_rows workload ~rows ~shards) @@ fun () ->
    let spec, txns =
      generate workload ~rows ~theta ~count ~seed ~shards
        ~cross_fraction:(cross_shard_pct /. 100.) ()
    in
    let engine =
      let cc, exec = Runner.split ~cc_fraction threads in
      engine
        (Bohm_core.Config.make ~cc_threads:cc ~exec_threads:exec
           ~batch_size:batch ~shards ~gc:(not no_gc)
           ~read_annotation:(not no_annotation) ~preprocess
           ~cc_rebalance:(not no_cc_rebalance) ())
        threads
    in
    let observe = trace <> None || timeline <> None || latency in
    let stats, recorder, sanitizer =
      if sanitize then
        let recorder =
          if observe then Some (Bohm_obs.Recorder.create ()) else None
        in
        let stats, report =
          Runner.run_sim_sanitized ?recorder engine spec txns
        in
        (stats, recorder, Some report)
      else if observe then
        let stats, recorder = Runner.run_sim_obs engine spec txns in
        (stats, Some recorder, None)
      else (Runner.run_sim engine spec txns, None, None)
    in
    let name = Runner.name engine in
    Report.header
      ~title:
        (if shards > 1 then
           Printf.sprintf "%s / %d shards x %d threads" name shards threads
         else Printf.sprintf "%s / %d threads" name threads);
    Report.print_kv
      ([
         ("throughput", Report.float_to_string (Stats.throughput stats) ^ " txns/s");
         ("transactions", string_of_int stats.Stats.txns);
         ("committed", string_of_int stats.Stats.committed);
         ("logic aborts", string_of_int stats.Stats.logic_aborts);
         ("cc aborts", string_of_int stats.Stats.cc_aborts);
         ("virtual time", Printf.sprintf "%.4f s" stats.Stats.elapsed);
       ]
      @ List.map
          (fun (k, v) -> (k, Report.float_to_string v))
          stats.Stats.extra);
    if latency then begin
      print_newline ();
      Report.print_series ~x_label:"phase" ~columns:Experiments.latency_columns
        ~rows:(Experiments.latency_rows stats)
    end;
    (match recorder with
    | None -> ()
    | Some r ->
        (* One replay feeds both export paths. *)
        let records =
          if timeline <> None || trace <> None then
            Bohm_obs.Timeline.of_recorder r
          else []
        in
        (match timeline with
        | Some path ->
            Bohm_obs.Timeline.write_jsonl ~path records;
            Printf.printf "\ntimeline: %s\n" path
        | None -> ());
        (match trace with
        | Some path ->
            Bohm_obs.Chrome.write
              ~counters:(Bohm_obs.Timeline.counters records)
              ~path r;
            Printf.printf "\ntrace: %s\n" path
        | None -> ()));
    match sanitizer with
    | None -> ()
    | Some report ->
        print_newline ();
        print_endline (Sanitizer_report.to_string report);
        if not (Sanitizer_report.is_clean report) then exit 1
  in
  let term =
    Term.(
      ret
        (const action $ engine $ workload $ threads $ shards $ cross_shard_pct
       $ theta $ rows $ count $ seed $ cc_fraction $ batch $ no_gc
       $ no_annotation $ preprocess $ no_cc_rebalance $ trace $ timeline
       $ latency $ sanitize))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one engine/workload configuration on the simulator.") term

(* --- tune command (SEDA thread-allocation search, paper 4.1) --- *)

let tune_cmd =
  let threads =
    Arg.(value & opt (at_least 2) 16 & info [ "t"; "threads" ] ~doc:"Total simulated threads to divide.")
  in
  let theta =
    Arg.(value & opt theta_conv 0.0 & info [ "theta" ] ~doc:"Zipfian contention parameter.")
  in
  let rows = Arg.(value & opt (at_least 1) 100_000 & info [ "rows" ] ~doc:"Table rows.") in
  let bytes =
    Arg.(value & opt (at_least 1) 1000 & info [ "record-bytes" ] ~doc:"Record size in bytes.")
  in
  let rmws = Arg.(value & opt (at_least 0) 10 & info [ "rmws" ] ~doc:"RMWs per transaction.") in
  let reads = Arg.(value & opt (at_least 0) 0 & info [ "reads" ] ~doc:"Pure reads per transaction.") in
  let action threads theta rows bytes rmws reads =
    or_usage
      (if rmws + reads = 0 then
         usage_error "--rmws and --reads are both 0: the profile is empty"
       else if rows < rmws + reads then
         usage_error
           "--rows %d is too few for --rmws %d --reads %d: each transaction \
            draws %d distinct rows"
           rows rmws reads (rmws + reads)
       else Ok ())
    @@ fun () ->
    let spec = Runner.ycsb_spec ~rows ~record_bytes:bytes in
    let txns =
      Ycsb.generate ~rows ~theta ~count:6_000 ~seed:1
        (Ycsb.mixed_profile ~rmws ~reads)
    in
    let r = Bohm_harness.Autotune.search ~threads spec txns in
    Report.header
      ~title:(Printf.sprintf "Autotune: %d threads, %dRMW-%dR, theta=%.2f" threads rmws reads theta);
    Report.print_series ~x_label:"cc threads" ~columns:[ "txns/s" ]
      ~rows:
        (List.map
           (fun (cc, t) -> (string_of_int cc, [ Some t ]))
           r.Bohm_harness.Autotune.samples);
    print_newline ();
    Report.print_kv
      [
        ("best split", Printf.sprintf "%d cc / %d exec"
           r.Bohm_harness.Autotune.cc_threads r.Bohm_harness.Autotune.exec_threads);
        ("throughput", Report.float_to_string r.Bohm_harness.Autotune.throughput ^ " txns/s");
      ]
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Search for the best CC/execution thread split (SEDA controller).")
    Term.(ret (const action $ threads $ theta $ rows $ bytes $ rmws $ reads))

(* --- analyze command (static footprint certifier, paper 2.3) --- *)

let analyze_cmd =
  let workload =
    Arg.(
      value & opt workload_conv W_10rmw
      & info [ "w"; "workload" ]
          ~doc:"Workload: 10rmw, 2rmw8r, readonly-mix or smallbank.")
  in
  let rows =
    Arg.(
      value & opt (at_least 1) 1_000
      & info [ "rows" ] ~doc:"Table rows (YCSB) / customers (SmallBank).")
  in
  let count =
    Arg.(value & opt (at_least 0) 2_000 & info [ "n"; "txns" ] ~doc:"Transactions to analyze.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let theta =
    Arg.(value & opt theta_conv 0.0 & info [ "theta" ] ~doc:"Zipfian contention parameter (YCSB).")
  in
  let partitions =
    Arg.(
      value & opt (at_least 1) 4
      & info [ "partitions" ]
          ~doc:"CC partitions for the predicted placeholder-load report.")
  in
  let shards =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "shards" ]
          ~doc:
            "Also report the batch's static sharding profile for this shard \
             count: per-shard placeholder load, cross-shard transaction \
             fraction, cross-shard dependency edges and expected vote \
             fan-out.")
  in
  let cross_validate =
    Arg.(
      value & flag
      & info [ "cross-validate" ]
          ~doc:
            "Also run BOHM on the simulator over the lowered IR batch under \
             the dynamic sanitizers: the inferred declarations must cover \
             every observed access.")
  in
  let threads =
    Arg.(value & opt (at_least 1) 8 & info [ "t"; "threads" ] ~doc:"Simulated threads for cross-validation runs.")
  in
  let action workload rows count seed theta partitions shards cross_validate
      threads =
    or_usage (check_rows workload ~rows ~shards:1) @@ fun () ->
    let insts = generate_ir workload ~rows ~theta ~count ~seed in
    let spec, declared = generate workload ~rows ~theta ~count ~seed () in
    (* Certify the closure generator's hand-written declarations against
       the inferred may-sets of the IR twin (same seed, same draws). *)
    let report = Sanitizer_report.create () in
    Certify.check_all report insts ~declared;
    let fps = Array.map Absint.infer insts in
    let sum f = Array.fold_left (fun acc fp -> acc + Array.length (f fp)) 0 fps in
    let over_r, over_w =
      Array.fold_left
        (fun (r, w) i ->
          let dr, dw = Certify.overdeclared insts.(i) ~declared:declared.(i) in
          (r + List.length dr, w + List.length dw))
        (0, 0)
        (Array.init (Array.length insts) Fun.id)
    in
    let g = Conflict_graph.of_instances insts in
    Report.header
      ~title:(Printf.sprintf "Static footprint analysis: %s, %d txns"
           (workload_name workload) count);
    Report.print_kv
      [
        ("may-reads", string_of_int (sum (fun fp -> fp.Absint.may_reads)));
        ("must-reads", string_of_int (sum (fun fp -> fp.Absint.must_reads)));
        ("may-writes", string_of_int (sum (fun fp -> fp.Absint.may_writes)));
        ("must-writes", string_of_int (sum (fun fp -> fp.Absint.must_writes)));
        ("conditional writes", string_of_int (sum Absint.conditional_writes));
        ( "over-declared",
          Printf.sprintf "%d reads, %d writes (legal; wasted CC work)" over_r
            over_w );
      ];
    print_newline ();
    print_endline (Conflict_graph.summary g ~partitions);
    if shards > 1 then begin
      print_newline ();
      print_endline (Conflict_graph.shard_summary g ~shards)
    end;
    let dyn_dirty = ref false in
    if cross_validate then begin
      (* The inferred declarations must cover every access an actual run
         performs (soundness: observed ⊆ may). Whether the static conflict
         graph is the serialization graph a BOHM run realizes is
         test_static's "static graph matches observed" property. *)
      let lowered = Array.map Certify.lower insts in
      let _stats, dyn =
        Runner.run_sim_sanitized (Runner.bohm_at threads) spec lowered
      in
      print_newline ();
      Printf.printf "sanitized BOHM run on lowered IR: %s\n"
        (if Sanitizer_report.is_clean dyn then "clean"
         else Sanitizer_report.to_string dyn);
      if not (Sanitizer_report.is_clean dyn) then dyn_dirty := true
    end;
    print_newline ();
    print_endline (Sanitizer_report.to_string report);
    if (not (Sanitizer_report.is_clean report)) || !dyn_dirty then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static footprint certification and batch conflict-graph analysis \
          (exit 1 on any diagnostic).")
    Term.(
      ret
        (const action $ workload $ rows $ count $ seed $ theta $ partitions
       $ shards $ cross_validate $ threads))

(* --- report command (critical-path analysis of a saved trace) --- *)

let report_cmd =
  let trace =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Chrome trace-event file written by $(b,bohm_cli run --trace) \
             (or any file accepted by the re-importer).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows per section of the summary (binding stages, blamed \
                (writer, key) pairs).")
  in
  let action trace top =
    let recorder =
      match
        try Bohm_obs.Chrome.read ~path:trace
        with Sys_error msg -> Error msg
      with
      | Ok r -> r
      | Error msg ->
          prerr_endline ("bohm_cli report: " ^ msg);
          exit 2
    in
    let cp = Bohm_obs.Critical_path.analyze recorder in
    Report.header ~title:(Printf.sprintf "Critical path: %s" trace);
    Format.printf "%a@." (Bohm_obs.Critical_path.pp ~top) cp
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Replay a saved trace and print the per-batch critical path: \
          binding pipeline stages and the dependency-stall blame ledger.")
    Term.(const action $ trace $ top)

let () =
  let doc = "BOHM multi-version concurrency control — experiment driver" in
  let info = Cmd.info "bohm_cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ run_cmd; analyze_cmd; report_cmd; tune_cmd ]))

module Stats = Bohm_txn.Stats
module Ycsb = Bohm_workload.Ycsb
module Smallbank = Bohm_workload.Smallbank
module Config = Bohm_core.Config

type series = Report.series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float option list) list;
  notes : string list;
}

let print s =
  Report.header ~title:s.title;
  List.iter Report.note s.notes;
  if s.notes <> [] then print_newline ();
  Report.print_series ~x_label:s.x_label ~columns:s.columns ~rows:s.rows;
  print_newline ()

(* --- baseline parameters (scaled-down, ratio-preserving; see
   EXPERIMENTS.md) --- *)

let ycsb_rows = 100_000
let ycsb_bytes = 1000
let base_count = 6_000
let full_threads = 40
let thread_sweep = [ 1; 2; 4; 8; 16; 24; 32; 40 ]
let quick_thread_sweep = [ 2; 16 ]
let smallbank_spin = 4_000 (* see EXPERIMENTS.md on the paper's 50 us figure *)

let scaled scale n = max 200 (int_of_float (float_of_int n *. scale))
let threads_for quick = if quick then quick_thread_sweep else thread_sweep

let engine_columns = List.map Runner.name (Runner.all 1)

let throughput engine spec txns =
  Some (Stats.throughput (Runner.run_sim engine spec txns))

(* One throughput cell per engine. *)
let engine_row spec txns engines =
  List.map (fun engine -> throughput engine spec txns) engines

(* --- Figure 4: CC / execution interaction --- *)

let fig4 ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale 8_000 in
  let rows = ycsb_rows in
  (* Small records and uniform access put all the stress on the CC layer
     (§4.1). *)
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let txns = Ycsb.generate ~rows ~theta:0.0 ~count ~seed:41 (Ycsb.rmw_profile 10) in
  let cc_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let exec_counts = if quick then [ 2; 8 ] else [ 1; 2; 4; 6; 8; 12; 16; 20 ] in
  let rows_data =
    List.map
      (fun exec ->
        ( string_of_int exec,
          List.map
            (fun cc ->
              throughput
                (Runner.Bohm (Config.make ~cc_threads:cc ~exec_threads:exec ()))
                spec txns)
            cc_counts ))
      exec_counts
  in
  [
    {
      title = "Figure 4: concurrency control / execution interaction (txns/s)";
      x_label = "exec threads";
      columns = List.map (fun cc -> Printf.sprintf "CC=%d" cc) cc_counts;
      rows = rows_data;
      notes =
        [
          "10RMW, 8-byte records, uniform keys: maximal stress on the CC layer.";
          "Expected: throughput rises with exec threads until the CC layer's";
          "ceiling; more CC threads raise the ceiling (intra-txn parallelism).";
        ];
    };
  ]

(* --- Figure 4 extension: multi-shard scaling --- *)

(* Aggregate throughput at fixed per-shard resources: every shard gets
   the same CC/exec split, so going 1 -> 2 -> 4 shards doubles and
   quadruples the machine — the paper's fig4 question re-asked at the
   shard level. 10% of transactions span two shards, paying footprint
   routing, cross-shard reads and the per-batch vote round. *)
let fig4_shards ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale (if quick then 2_000 else 8_000) in
  let rows = ycsb_rows in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let cc = 4 and exec = 8 in
  let shard_counts = [ 1; 2; 4 ] in
  let results =
    List.map
      (fun shards ->
        let txns =
          Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:41 ~shards
            ~cross_fraction:0.1 (Ycsb.rmw_profile 10)
        in
        let bohm =
          Config.make ~cc_threads:cc ~exec_threads:exec ~shards
            ~preprocess:true ()
        in
        let stats = Runner.run_sim (Runner.Bohm bohm) spec txns in
        let cross =
          Option.value ~default:0.
            (List.assoc_opt "cross_shard_txns" stats.Stats.extra)
        in
        (shards, Stats.throughput stats, cross))
      shard_counts
  in
  let base =
    match results with (_, tput, _) :: _ -> tput | [] -> 1.
  in
  [
    {
      title = "Figure 4 (shards): multi-shard aggregate throughput (txns/s)";
      x_label = "shards";
      columns = [ "txns/s"; "speedup"; "cross-shard txns" ];
      rows =
        List.map
          (fun (shards, tput, cross) ->
            ( string_of_int shards,
              [ Some tput; Some (tput /. base); Some cross ] ))
          results;
      notes =
        [
          "10RMW, 8-byte records, uniform keys; CC=4 / exec=8 *per shard*,";
          "preprocessing on, batch 1000, 10% of transactions spanning two";
          "shards. Each shard runs a complete pipeline over its slice of";
          "the key space; batches commit through one deterministic";
          "cross-shard vote round (no coordinator). Expected: near-linear";
          "aggregate scaling - the vote round is batch-amortized and";
          "cross-shard reads cost the same as local ones.";
        ];
    };
  ]

(* --- Figures 5/6: YCSB thread sweeps --- *)

let ycsb_sweep ~title ~profile ~theta ~count ~quick ~notes =
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:ycsb_bytes in
  let txns = Ycsb.generate ~rows:ycsb_rows ~theta ~count ~seed:51 profile in
  let rows_data =
    List.map
      (fun threads ->
        (string_of_int threads, engine_row spec txns (Runner.all threads)))
      (threads_for quick)
  in
  {
    title;
    x_label = "threads";
    columns = engine_columns;
    rows = rows_data;
    notes;
  }

let fig5 ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  [
    ycsb_sweep
      ~title:"Figure 5 (top): YCSB 10RMW, high contention (theta=0.9), txns/s"
      ~profile:(Ycsb.rmw_profile 10) ~theta:0.9 ~count ~quick
      ~notes:
        [
          "Expected: 2PL best (no multi-version copy overhead, no aborts);";
          "BOHM ~2x Hekaton/SI at high thread counts (they abort-thrash).";
        ];
    ycsb_sweep
      ~title:"Figure 5 (bottom): YCSB 10RMW, low contention (theta=0), txns/s"
      ~profile:(Ycsb.rmw_profile 10) ~theta:0.0 ~count ~quick
      ~notes:
        [ "Expected: 2PL still best but by a smaller margin; MV engines cluster." ];
  ]

let fig6 ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  [
    ycsb_sweep
      ~title:"Figure 6 (top): YCSB 2RMW-8R, high contention (theta=0.9), txns/s"
      ~profile:(Ycsb.mixed_profile ~rmws:2 ~reads:8)
      ~theta:0.9 ~count ~quick
      ~notes:
        [
          "Expected: BOHM best (reads never block writes, writers never abort);";
          "SI above Hekaton/OCC/2PL; single-version engines suffer rw conflicts.";
        ];
    ycsb_sweep
      ~title:"Figure 6 (bottom): YCSB 2RMW-8R, low contention (theta=0), txns/s"
      ~profile:(Ycsb.mixed_profile ~rmws:2 ~reads:8)
      ~theta:0.0 ~count ~quick
      ~notes:
        [
          "Expected: OCC best, BOHM close behind; Hekaton/SI plateau early on";
          "the global timestamp counter (the paper's centralized bottleneck).";
        ];
  ]

(* --- Figure 7: contention sweep at full thread count --- *)

let fig7 ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:ycsb_bytes in
  let thetas = if quick then [ 0.0; 0.9 ] else [ 0.0; 0.2; 0.4; 0.6; 0.8; 0.9; 0.95 ] in
  let threads = if quick then 16 else full_threads in
  let rows_data =
    List.map
      (fun theta ->
        let txns =
          Ycsb.generate ~rows:ycsb_rows ~theta ~count ~seed:71
            (Ycsb.mixed_profile ~rmws:2 ~reads:8)
        in
        ( Printf.sprintf "%.2f" theta,
          engine_row spec txns (Runner.all threads) ))
      thetas
  in
  [
    {
      title =
        Printf.sprintf "Figure 7: YCSB 2RMW-8R at %d threads, varying theta (txns/s)"
          threads;
      x_label = "theta";
      columns = engine_columns;
      rows = rows_data;
      notes =
        [
          "Expected: Hekaton ~= SI and flat through low/medium contention";
          "(counter-bound), dropping under high theta; BOHM and OCC lead at";
          "low theta; every system falls as theta -> 0.95.";
        ];
    };
  ]

(* --- Figures 8/9: long read-only transactions --- *)

let fig8_rows = 30_000
let fig8_scan = 1_000

(* The five engines at [threads], BOHM's split tuned as the paper's SEDA
   discussion prescribes: long scans need few CC threads (they insert
   nothing). *)
let fig8_engines threads =
  let cc, exec = Runner.split ~cc_fraction:0.15 threads in
  let bohm = Config.make ~cc_threads:cc ~exec_threads:exec ~batch_size:250 () in
  List.map
    (function Runner.Bohm _ -> Runner.Bohm bohm | e -> e)
    (Runner.all threads)

let fig8_spec () = Runner.ycsb_spec ~rows:fig8_rows ~record_bytes:ycsb_bytes

let fig8_txns ~fraction ~count ~seed =
  Ycsb.generate_mix ~rows:fig8_rows ~read_only_fraction:fraction ~scan:fig8_scan
    ~update_profile:(Ycsb.rmw_profile 10) ~theta:0.0 ~count ~seed

let fig8 ?(scale = 1.0) ?(quick = false) () =
  let spec = fig8_spec () in
  let fractions =
    if quick then [ 0.01; 1.0 ] else [ 0.0001; 0.001; 0.01; 0.1; 0.5; 1.0 ]
  in
  let threads = if quick then 16 else full_threads in
  let rows_data =
    List.map
      (fun fraction ->
        (* Read-only transactions are ~30x heavier than updates; shrink the
           stream as they dominate to keep runs comparable in work. *)
        let base = if fraction <= 0.01 then 3_000 else if fraction <= 0.1 then 800 else 250 in
        let count = scaled scale base in
        let txns = fig8_txns ~fraction ~count ~seed:81 in
        ( Printf.sprintf "%g%%" (fraction *. 100.),
          engine_row spec txns (fig8_engines threads) ))
      fractions
  in
  [
    {
      title =
        Printf.sprintf
          "Figure 8: 10RMW (theta=0) + long read-only transactions at %d threads (txns/s)"
          threads;
      x_label = "read-only";
      columns = engine_columns;
      rows = rows_data;
      notes =
        [
          (Printf.sprintf
             "Read-only transactions scan %d uniform records (updates touch 10)."
             fig8_scan);
          "Expected: at small fractions the multi-version engines beat the";
          "single-version ones by ~an order of magnitude (readers don't block";
          "writers); all converge at 100% read-only.";
        ];
    };
  ]

let tab9 ?(scale = 1.0) ?(quick = false) () =
  let spec = fig8_spec () in
  let threads = if quick then 16 else full_threads in
  let count = scaled scale 3_000 in
  let txns = fig8_txns ~fraction:0.01 ~count ~seed:91 in
  let results =
    List.map
      (fun engine ->
        ( Runner.name engine,
          Stats.throughput (Runner.run_sim engine spec txns) ))
      (fig8_engines threads)
  in
  let bohm_throughput =
    match List.assoc_opt "Bohm" results with Some t -> t | None -> 1.
  in
  let rows_data =
    List.map
      (fun (name, thr) ->
        (name, [ Some thr; Some (100. *. thr /. bohm_throughput) ]))
      (List.sort (fun (_, a) (_, b) -> compare b a) results)
  in
  [
    {
      title =
        Printf.sprintf
          "Figure 9 (table): throughput with 1%% long read-only transactions, %d threads"
          threads;
      x_label = "system";
      columns = [ "txns/s"; "% of Bohm" ];
      rows = rows_data;
      notes =
        [
          "Paper: Bohm 100%, SI 64%, Hekaton 61%, 2PL 16%, OCC 9%.";
          "Expected ordering: Bohm > SI ~ Hekaton >> 2PL > OCC.";
        ];
    };
  ]

(* --- Figure 10: SmallBank --- *)

let smallbank_sweep ~title ~customers ~count ~quick ~notes =
  let spec = Runner.smallbank_spec ~customers in
  let txns =
    Smallbank.generate ~customers ~count ~seed:101 ~spin:smallbank_spin ()
  in
  let rows_data =
    List.map
      (fun threads ->
        (string_of_int threads, engine_row spec txns (Runner.all threads)))
      (threads_for quick)
  in
  { title; x_label = "threads"; columns = engine_columns; rows = rows_data; notes }

let fig10 ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  [
    smallbank_sweep
      ~title:"Figure 10 (top): SmallBank, high contention (50 customers), txns/s"
      ~customers:50 ~count ~quick
      ~notes:
        [
          "Expected: 2PL best but the 2PL/BOHM gap is smaller than fig 5 (8-byte";
          "records; 20% read-only Balance txns); Hekaton/SI drop with threads.";
        ];
    smallbank_sweep
      ~title:
        "Figure 10 (bottom): SmallBank, low contention (100,000 customers), txns/s"
      ~customers:100_000 ~count ~quick
      ~notes:
        [
          "Expected: BOHM/2PL/OCC cluster together, ~3x Hekaton/SI, which are";
          "bottlenecked on the global timestamp counter.";
        ];
  ]

(* --- ablations --- *)

let ablation_batch ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.0 ~count ~seed:111 (Ycsb.rmw_profile 10)
  in
  let batches = if quick then [ 100; 1000 ] else [ 10; 100; 1000; 5000 ] in
  let threads = if quick then 8 else 16 in
  let cc = threads / 2 and exec = threads - (threads / 2) in
  let rows_data =
    List.map
      (fun batch ->
        let bohm = Config.make ~cc_threads:cc ~exec_threads:exec ~batch_size:batch () in
        (string_of_int batch, [ throughput (Runner.Bohm bohm) spec txns ]))
      batches
  in
  [
    {
      title =
        Printf.sprintf "Ablation: BOHM batch size (coordination amortization), %d threads"
          threads;
      x_label = "batch";
      columns = [ "txns/s" ];
      rows = rows_data;
      notes =
        [
          "Small batches coordinate the CC threads at every few transactions";
          "(barrier cost dominates); large batches amortize it (paper 3.2.4).";
        ];
    };
  ]

let ablation_annotation ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale 4_000 in
  let rows = 10_000 in
  let spec = Runner.ycsb_spec ~rows ~record_bytes:ycsb_bytes in
  (* Skewed updates with GC off grow long chains; without annotation the
     execution layer must walk them on every read. *)
  let txns =
    Ycsb.generate ~rows ~theta:0.9 ~count ~seed:121
      (Ycsb.mixed_profile ~rmws:2 ~reads:8)
  in
  let threads = if quick then 4 else 16 in
  let cc = threads / 2 and exec = threads - (threads / 2) in
  let run annotate =
    let bohm =
      Config.make ~cc_threads:cc ~exec_threads:exec ~gc:false
        ~read_annotation:annotate ()
    in
    throughput (Runner.Bohm bohm) spec txns
  in
  [
    {
      title = "Ablation: BOHM read annotation (3.2.3) under long version chains";
      x_label = "config";
      columns = [ "txns/s" ];
      rows =
        [ ("annotate=on", [ run true ]); ("annotate=off", [ run false ]) ];
      notes =
        [
          "2RMW-8R, theta=0.9, GC off: chains grow, so chain-walking reads";
          "(annotation off) pay version-traversal costs that annotated reads skip.";
        ];
    };
  ]

let ablation_gc ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.9 ~count ~seed:131 (Ycsb.rmw_profile 10)
  in
  let threads = if quick then 4 else 16 in
  let cc = threads / 2 and exec = threads - (threads / 2) in
  let run gc =
    (* Small batches so the execution watermark advances many times within
       the run and Condition-3 GC gets to act. *)
    let bohm = Config.make ~cc_threads:cc ~exec_threads:exec ~batch_size:250 ~gc () in
    let stats = Runner.run_sim (Runner.Bohm bohm) spec txns in
    let collected =
      match Stats.extra stats "gc_collected" with Some f -> f | None -> 0.
    in
    [ Some (Stats.throughput stats); Some collected ]
  in
  [
    {
      title = "Ablation: BOHM garbage collection (3.3.2), skewed 10RMW";
      x_label = "config";
      columns = [ "txns/s"; "collected" ];
      rows = [ ("gc=on", run true); ("gc=off", run false) ];
      notes =
        [
          "Condition-3 GC bounds chains at roughly the CC/exec pipeline depth;";
          "the paper runs BOHM with GC on and its baselines without.";
        ];
    };
  ]

let ablation_cc_split ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.0 ~count ~seed:141 (Ycsb.rmw_profile 10)
  in
  let threads = if quick then 16 else full_threads in
  let fractions = if quick then [ 0.25; 0.75 ] else [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ] in
  let rows_data =
    List.map
      (fun f ->
        let cc, exec = Runner.split ~cc_fraction:f threads in
        let bohm = Config.make ~cc_threads:cc ~exec_threads:exec () in
        ( Printf.sprintf "%.0f%%cc (%d/%d)" (f *. 100.) cc exec,
          [ throughput (Runner.Bohm bohm) spec txns ] ))
      fractions
  in
  [
    {
      title =
        Printf.sprintf "Ablation: BOHM thread split at %d total threads" threads;
      x_label = "split";
      columns = [ "txns/s" ];
      rows = rows_data;
      notes =
        [
          "The administrator-tuned division the paper discusses under Figure 4:";
          "too few CC threads starve execution; too many starve the CC layer.";
        ];
    };
  ]

let ablation_preprocess ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale 8_000 in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.0 ~count ~seed:151 (Ycsb.rmw_profile 10)
  in
  let exec = if quick then 8 else 20 in
  let ccs = if quick then [ 2; 8 ] else [ 2; 4; 8; 16 ] in
  let rows_data =
    List.map
      (fun cc ->
        let run preprocess =
          let bohm = Config.make ~cc_threads:cc ~exec_threads:exec ~preprocess () in
          throughput (Runner.Bohm bohm) spec txns
        in
        (Printf.sprintf "CC=%d" cc, [ run false; run true ]))
      ccs
  in
  [
    {
      title =
        Printf.sprintf
          "Ablation: CC pre-processing layer (3.2.2), %d exec threads" exec;
      x_label = "cc threads";
      columns = [ "scan (txns/s)"; "preprocessed (txns/s)" ];
      rows = rows_data;
      notes =
        [
          "Without preprocessing every CC thread scans every transaction, a";
          "serial fraction that grows with the CC thread count (Amdahl).";
          "The parallel pre-processing pass hands each CC thread exactly its";
          "keys, lifting the CC layer's ceiling at high thread counts.";
        ];
    };
  ]

(* Static vs adaptive CC partitioning at each CC count in [ccs], both
   with preprocessing on (the rebalancer is inert without it): the two
   throughputs, the adaptive gain in percent when [gain], then the
   adaptive run's rebalance counters. *)
let rebalance_columns ~gain =
  [ "static (txns/s)"; "adaptive (txns/s)" ]
  @ (if gain then [ "gain %" ] else [])
  @ [ "rebalances"; "segs_moved"; "imb max"; "imb mean" ]

let rebalance_rows ~gain ~exec ~batch ~ccs spec txns =
  List.map
    (fun cc ->
      let run cc_rebalance =
        let bohm =
          Config.make ~cc_threads:cc ~exec_threads:exec ~batch_size:batch
            ~preprocess:true ~cc_rebalance ()
        in
        Runner.run_sim (Runner.Bohm bohm) spec txns
      in
      let static = run false in
      let adaptive = run true in
      let s = Stats.throughput static and a = Stats.throughput adaptive in
      let extra name =
        Some (Option.value ~default:0. (Stats.extra adaptive name))
      in
      ( Printf.sprintf "CC=%d" cc,
        [ Some s; Some a ]
        @ (if gain then [ Some (100. *. ((a /. s) -. 1.)) ] else [])
        @ List.map extra
            [ "rebalances"; "segs_moved"; "cc_imbalance_max"; "cc_imbalance_mean" ]
      ))
    ccs

(* Adaptive CC repartitioning against the static hash, on the skewed fig4
   workload: with theta = 0.9 a handful of hash segments carry most of the
   footprint, the CC batch barrier runs at the hottest partition's pace,
   and the epoch-versioned rebalancer's greedy repack is exactly the
   counter-move. Both columns run the pipelined preprocessing stage (the
   rebalancer is inert without it). At CC=1 there is nothing to balance
   and the two columns must be identical. *)
let ablation_cc_rebalance ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale 8_000 in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.9 ~count ~seed:41
      (Ycsb.rmw_profile 10)
  in
  let exec = if quick then 8 else 20 in
  let ccs = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  [
    {
      title =
        Printf.sprintf
          "Ablation: adaptive CC repartitioning, exec=%d (fig4 workload, \
           theta=0.9)"
          exec;
      x_label = "cc threads";
      columns = rebalance_columns ~gain:false;
      rows = rebalance_rows ~gain:false ~exec ~batch:500 ~ccs spec txns;
      notes =
        [
          "Both columns run pipelined preprocessing, batch 500. The static";
          "column pins hash-mod-partitions; the adaptive column measures";
          "per-segment occupancy during preprocessing and publishes a";
          "repacked epoch-versioned partition map two batches ahead when the";
          "measured max/mean imbalance clears the hysteresis gates. The";
          "imbalance columns are the adaptive run's occupancy measured under";
          "the map each batch actually used.";
        ];
    };
  ]

(* The flash-crowd workload: a migrating hot window the static assignment
   can never be right for. Each phase concentrates most accesses on a few
   dozen segments, so the hot partitions' CC time sets the batch barrier;
   the rebalancer re-spreads the window within its publication lag and
   keeps doing so after every jump. *)
let flash_crowd ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale 8_000 in
  let rows = ycsb_rows in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  (* hot_keys large enough that successive hot reads rarely re-touch a
     cached line: the hot load is then full-cost per entry, and the
     segment concentration turns into CC *time* concentration. *)
  let phases = 4 and hot_keys = 2048 and hot_frac = 0.9 in
  (* 2RMW-8R rather than 10RMW: hot *reads* pile CC annotation work onto
     the hot partitions without serializing execution on deep write
     chains, so the bottleneck under study stays the CC barrier. *)
  let txns =
    Ycsb.generate_flash_crowd ~rows ~count ~seed:41 ~phases ~hot_keys
      ~hot_frac (Ycsb.mixed_profile ~rmws:2 ~reads:8)
  in
  let batch = 250 in
  let exec = if quick then 8 else 16 in
  let ccs = if quick then [ 2; 4 ] else [ 1; 2; 4; 8 ] in
  [
    {
      title =
        Printf.sprintf
          "Flash crowd: static vs adaptive CC partitioning, exec=%d \
           (migrating hot set)"
          exec;
      x_label = "cc threads";
      columns = rebalance_columns ~gain:true;
      rows = rebalance_rows ~gain:true ~exec ~batch ~ccs spec txns;
      notes =
        [
          Printf.sprintf
            "2RMW+8R, 8-byte records: %d%% of read draws hit a %d-key hot set"
            (int_of_float (100. *. hot_frac))
            hot_keys;
          Printf.sprintf
            "that migrates every %d transactions (%d phases). Hot rows share"
            (max 1 ((count + phases - 1) / phases))
            phases;
          "a hash class, so the static map piles the whole crowd onto ONE";
          Printf.sprintf
            "CC partition whenever the count divides 8; batch %d," batch;
          "preprocessing on. The adaptive map re-spreads the hot segments";
          "within the two-batch publication lag after every migration.";
        ];
    };
  ]

(* --- latency profile (Bohm_obs) --- *)

let latency_columns = [ "p50"; "p95"; "p99"; "p999"; "mean"; "stddev"; "count" ]

let latency_rows ?label stats =
  List.map
    (fun (phase, h) ->
      let s = Bohm_util.Histogram.to_summary h in
      ( (match label with Some l -> l ^ " " ^ phase | None -> phase),
        [
          Some (float_of_int s.Bohm_util.Histogram.s_p50);
          Some (float_of_int s.Bohm_util.Histogram.s_p95);
          Some (float_of_int s.Bohm_util.Histogram.s_p99);
          Some (float_of_int s.Bohm_util.Histogram.s_p999);
          Some s.Bohm_util.Histogram.s_mean;
          Some s.Bohm_util.Histogram.s_stddev;
          Some (float_of_int s.Bohm_util.Histogram.s_count);
        ] ))
    stats.Stats.latency

(* Per-phase latency percentiles across all six engines, from the
   observability layer's per-transaction histograms. Times are virtual
   cycles (the Sim clock), so the table is deterministic; the phase
   decomposition — where a transaction's life goes: waiting for its batch,
   concurrency control, stalled on dependencies, executing — is the
   pipeline-vs-abort story of §3 told in latency rather than throughput. *)
let latency_profile ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale 4_000 in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  (* Moderate skew so every engine shows contention phases (dependency
     stalls for BOHM, abort-retry stalls for the optimists) without
     collapsing. *)
  let txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.6 ~count ~seed:181
      (Ycsb.rmw_profile 10)
  in
  let threads = if quick then 8 else 16 in
  let rows_data =
    List.concat_map
      (fun engine ->
        let stats, _recorder = Runner.run_sim_obs engine spec txns in
        latency_rows ~label:(Runner.name engine) stats)
      (Runner.all threads @ [ Runner.Mvto threads ])
  in
  [
    {
      title =
        Printf.sprintf
          "Latency profile: per-phase latency percentiles (cycles), %d threads"
          threads;
      x_label = "engine phase";
      columns = latency_columns;
      rows = rows_data;
      notes =
        [
          "10RMW, theta=0.6. Phases: queue_wait (dispatch to CC";
          "publication / first attempt), cc_wait (concurrency control /";
          "commit protocol), dep_stall (blocked on unresolved";
          "dependencies or abort-retry backoff), exec (transaction";
          "logic). Virtual cycles from the simulator clock; recording";
          "is host-side, so the observed schedule is the unobserved one.";
        ];
    };
  ]

(* --- critical path (Bohm_obs.Critical_path) --- *)

(* Which pipeline stage binds each batch's makespan, and where blamed
   dependency-stall cycles go. The BOHM table is the paper's §4.1 thread
   allocation question asked of individual batches: at CC=4 the CC layer
   binds, at CC=8 the bottleneck moves to execution; sharding adds the
   vote round. The baselines get the same analysis over nominal
   1000-transaction batches of their per-txn spans. *)
let critical_path ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale (if quick then 2_000 else 8_000) in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:8 in
  let module Cp = Bohm_obs.Critical_path in
  let share cp st = Some (100. *. Cp.binding_share cp st) in
  let blamed cp =
    Some
      (List.fold_left
         (fun acc b -> acc +. float_of_int b.Cp.bl_cycles)
         0. cp.Cp.cp_blame)
  in
  (* BOHM at a fixed exec pool (20 per shard), CC=4 vs 8, 1 vs 4 shards;
     preprocessing on so the sequence/rebalance stages exist. *)
  let bohm_rows =
    List.map
      (fun (cc, shards) ->
        let bohm =
          Config.make ~cc_threads:cc ~exec_threads:20 ~shards ~preprocess:true ()
        in
        let txns =
          if shards > 1 then
            Ycsb.generate_sharded ~rows:ycsb_rows ~theta:0.0 ~count ~seed:191
              ~shards ~cross_fraction:0.1 (Ycsb.rmw_profile 10)
          else
            Ycsb.generate ~rows:ycsb_rows ~theta:0.0 ~count ~seed:191
              (Ycsb.rmw_profile 10)
        in
        let _stats, recorder =
          Runner.run_sim_obs (Runner.Bohm bohm) spec txns
        in
        let cp = Cp.analyze recorder in
        ( Printf.sprintf "CC=%d exec=20 shards=%d" cc shards,
          List.map
            (fun st -> share cp st)
            [ "sequence"; "preprocess"; "rebalance"; "cc"; "exec"; "shard_vote" ]
          @ [ blamed cp ] ))
      [ (4, 1); (8, 1); (4, 4); (8, 4) ]
  in
  (* The five single-layer engines: same analysis over their nominal
     batches. Skew so the stall/abort machinery has something to blame. *)
  let threads = if quick then 8 else 16 in
  let base_txns =
    Ycsb.generate ~rows:ycsb_rows ~theta:0.6 ~count ~seed:191
      (Ycsb.rmw_profile 10)
  in
  let baseline_rows =
    List.map
      (fun engine ->
        let _stats, recorder = Runner.run_sim_obs engine spec base_txns in
        let cp = Cp.analyze recorder in
        ( Runner.name engine,
          List.map (fun st -> share cp st) [ "lock"; "exec"; "commit" ]
          @ [ Some (float_of_int (List.length cp.Cp.cp_batches)) ] ))
      Runner.
        [ Twopl threads; Occ threads; Si threads; Hekaton threads; Mvto threads ]
  in
  [
    {
      title = "Critical path: BOHM binding stage (% of batches bound)";
      x_label = "config";
      columns =
        [ "sequence"; "preprocess"; "rebalance"; "cc"; "exec"; "vote"; "blamed cyc" ];
      rows = bohm_rows;
      notes =
        [
          "10RMW, 8-byte records, uniform keys, preprocessing on, batch";
          "1000. Per batch the binding stage is the pipeline stage whose";
          "wall window dominates the batch makespan (Critical_path);";
          "'blamed cyc' sums the dep_stall ledger - stall cycles";
          "attributed to specific (writer txn, key) pairs. Expected: CC=4";
          "leaves concurrency control binding most batches; CC=8 moves";
          "the bottleneck to execution; shards add vote-bound batches.";
        ];
    };
    {
      title =
        "Critical path: baseline engines, nominal 1000-txn batches (% bound)";
      x_label = "engine";
      columns = [ "lock"; "exec"; "commit"; "batches" ];
      rows = baseline_rows;
      notes =
        [
          Printf.sprintf
            "10RMW, theta=0.6, %d threads. The single-layer engines"
            threads;
          "attribute per-transaction spans to nominal batches of 1000";
          "inputs; exec should bind nearly everywhere, with 2PL's lock";
          "phase and the optimists' commit/validation showing up under";
          "skew.";
        ];
    };
  ]

(* BOHM against classic multiversion timestamp ordering (Reed; paper
   2.2/5): MVTO tracks every read in shared memory and lets readers abort
   writers — the two costs BOHM eliminates. Not one of the paper's
   measured baselines, hence a separate comparison. *)
let extension_mvto ?(scale = 1.0) ?(quick = false) () =
  let count = scaled scale base_count in
  let spec = Runner.ycsb_spec ~rows:ycsb_rows ~record_bytes:ycsb_bytes in
  let threads = if quick then 8 else 24 in
  let profiles =
    [
      ("2RMW-8R th=0.0", Ycsb.mixed_profile ~rmws:2 ~reads:8, 0.0);
      ("2RMW-8R th=0.9", Ycsb.mixed_profile ~rmws:2 ~reads:8, 0.9);
      ("10RMW   th=0.9", Ycsb.rmw_profile 10, 0.9);
    ]
  in
  let rows_data =
    List.map
      (fun (label, profile, theta) ->
        let txns = Ycsb.generate ~rows:ycsb_rows ~theta ~count ~seed:161 profile in
        let bohm =
          Stats.throughput (Runner.run_sim (Runner.bohm_at threads) spec txns)
        in
        let mvto_stats = Runner.run_sim (Runner.Mvto threads) spec txns in
        let aborts =
          match Stats.extra mvto_stats "reader_induced_aborts" with
          | Some f -> f
          | None -> 0.
        in
        ( label,
          [ Some bohm; Some (Stats.throughput mvto_stats); Some aborts ] ))
      profiles
  in
  [
    {
      title =
        Printf.sprintf
          "Extension: BOHM vs multiversion timestamp ordering (Reed), %d threads"
          threads;
      x_label = "workload";
      columns = [ "Bohm (txns/s)"; "MVTO (txns/s)"; "rw aborts" ];
      rows = rows_data;
      notes =
        [
          "MVTO implements 2.2's \"Track Reads\": every read stamps the";
          "version it consumed (a contended shared-memory write) and a";
          "later reader's stamp aborts an earlier writer. BOHM pays";
          "neither cost.";
        ];
    };
  ]

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("tab9", tab9);
    ("fig10", fig10);
    ("ablation-batch", ablation_batch);
    ("ablation-annotation", ablation_annotation);
    ("ablation-gc", ablation_gc);
    ("ablation-cc-split", ablation_cc_split);
    ("ablation-preprocess", ablation_preprocess);
    ("ablation-cc-rebalance", ablation_cc_rebalance);
    ("flash-crowd", flash_crowd);
    ("fig4-shards", fig4_shards);
    ("latency-profile", latency_profile);
    ("critical-path", critical_path);
    ("mvto", extension_mvto);
  ]

let run_all ?scale ?quick () =
  List.concat_map
    (fun (_, f) ->
      let series = f ?scale ?quick () in
      List.iter print series;
      series)
    experiments

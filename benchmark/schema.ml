(* Every metric the benchmark reports, with its unit and the direction
   that counts as better. BENCHMARK.json at the repository root declares
   the same names, units and directions (the benchmark's test checks that
   the two agree); the end-to-end bounds live there. *)

type better = Lower | Higher
type metric = { name : string; unit : string; better : better }

let m ?(better = Lower) name unit = { name; unit; better }

(* Measured with tracing off. *)
let end_to_end =
  [
    m ~better:Higher "sim_tput" "txns/s";
    m ~better:Higher "sim_host_tps" "txns/s";
    m ~better:Higher "real_tput" "txns/s";
    m "real_batch_ms_p50" "ms";
    m "real_batch_ms_p90" "ms";
    m "heap_peak_mb" "MB";
    m "setup_s" "s";
  ]

(* From one traced Sim run, one traced Real run, the untraced runs'
   counters and micro-ops timed through public calls. *)
let per_layer =
  [
    (* lib/core/engine, virtual cycles *)
    m "engine.cc_cyc_per_txn" "cyc/txn";
    m "engine.gc_cyc_per_txn" "cyc/txn";
    m "engine.exec_cyc_per_txn" "cyc/txn";
    m "engine.preprocess_cyc_per_txn" "cyc/txn";
    m "engine.vote_cyc_per_txn" "cyc/txn";
    m "engine.blamed_stall_cyc_per_txn" "cyc/txn";
    m "engine.probes_per_txn" "1/txn";
    m "engine.dep_blocks_per_ktxn" "1/ktxn";
    m "engine.wakeups_per_ktxn" "1/ktxn";
    m "engine.steals_per_ktxn" "1/ktxn";
    m "engine.retry_scans_per_ktxn" "1/ktxn";
    m "engine.bind.cc" "share";
    m "engine.bind.exec" "share";
    m "engine.bind.preprocess" "share";
    m "engine.bind.vote" "share";
    m "engine.makespan_cyc_p50" "cyc";
    m "engine.makespan_cyc_max" "cyc";
    m "engine.lat.queue_wait_p50" "cyc";
    m "engine.lat.queue_wait_p99" "cyc";
    m "engine.lat.cc_wait_p50" "cyc";
    m "engine.lat.cc_wait_p99" "cyc";
    m "engine.lat.dep_stall_p50" "cyc";
    m "engine.lat.dep_stall_p99" "cyc";
    m "engine.lat.exec_p50" "cyc";
    m "engine.lat.exec_p99" "cyc";
    m "engine.create_ms" "ms";
    (* lib/core/version *)
    m ~better:Higher "version.gc_collected_per_ktxn" "1/ktxn";
    m "version.slabs_opened" "count";
    m "version.slabs_live" "count";
    m "version.insert_ns" "ns";
    m "version.insert_cyc" "cyc";
    m "version.truncate_ns_per_ver" "ns";
    m "version.truncate_cyc_per_ver" "cyc";
    (* lib/storage *)
    m "storage.get_ns" "ns";
    m "storage.get_cyc" "cyc";
    (* lib/runtime *)
    m "sync.barrier_round_ns" "ns";
    m "sim.steps_per_txn" "1/txn";
    m "sim.host_ns_per_step" "ns";
    m "runtime.minor_words_per_txn" "words/txn";
    m "runtime.major_gcs_per_ktxn" "1/ktxn";
    m "calib.max_ratio_dev" "ratio";
    (* lib/core/partition_map *)
    m "partition_map.rebalances" "count";
    m "partition_map.segs_moved" "count";
    m "partition_map.imbalance_mean" "ratio";
    (* sharding *)
    m "shard.cross_txns_per_ktxn" "1/ktxn";
    m "shard.votes" "count";
    (* Real runtime, traced *)
    m "real.cc_ns_per_txn" "ns/txn";
    m "real.gc_ns_per_txn" "ns/txn";
    m "real.exec_ns_per_txn" "ns/txn";
    m "real.bind.cc" "share";
    m "real.bind.exec" "share";
    (* workload generation, the serial oracle, the tracer *)
    m "workload.gen_us_per_txn" "us/txn";
    m ~better:Higher "harness.serial_tps" "txns/s";
    m "obs.overhead_pct" "%";
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"

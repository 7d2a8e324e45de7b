(* Per-layer numbers folded from one run's artifacts: the per-batch
   [Timeline], the [Critical_path] binding shares, the latency histograms
   and the untraced run's [Stats.extra] counters. Pure functions, so the
   benchmark's test can feed them hand-built records. *)

module Timeline = Bohm_obs.Timeline
module Critical_path = Bohm_obs.Critical_path
module Stats = Bohm_txn.Stats
module Histogram = Bohm_util.Histogram

let per txns x = x /. float_of_int (max 1 txns)
let per_k txns x = 1000. *. per txns x

(* A stage's wall window summed over batches, per transaction: the time
   the stage held the pipeline, which is what a saving in it can take
   off the makespan. [gc] is nested inside [cc] and counted in both. *)
let stage_per_txn records ~txns stage =
  per txns
    (float_of_int
       (List.fold_left (fun acc r -> acc + Timeline.stage r stage) 0 records))

let stages =
  [
    ("cc", "cc");
    ("gc", "gc");
    ("exec", "exec");
    ("preprocess", "preprocess");
    ("vote", "shard_vote");
  ]

let sim_timeline records ~txns =
  let makespans =
    List.map (fun r -> float_of_int (Timeline.makespan r)) records
  in
  List.map
    (fun (label, stage) ->
      ( Printf.sprintf "engine.%s_cyc_per_txn" label,
        stage_per_txn records ~txns stage ))
    stages
  @ [
      ( "engine.blamed_stall_cyc_per_txn",
        per txns
          (float_of_int
             (List.fold_left (fun acc r -> acc + r.Timeline.tl_dep_stall) 0 records))
      );
      ( "engine.makespan_cyc_p50",
        if makespans = [] then 0. else Summary.median makespans );
      ("engine.makespan_cyc_max", List.fold_left Float.max 0. makespans);
    ]

let binding ~prefix cp labels =
  List.map
    (fun (label, stage) ->
      (Printf.sprintf "%s.bind.%s" prefix label, Critical_path.binding_share cp stage))
    labels

let sim_binding cp =
  binding ~prefix:"engine" cp
    [ ("cc", "cc"); ("exec", "exec"); ("preprocess", "preprocess"); ("vote", "shard_vote") ]

let real_traced records cp ~txns =
  List.map
    (fun stage ->
      (Printf.sprintf "real.%s_ns_per_txn" stage, stage_per_txn records ~txns stage))
    [ "cc"; "gc"; "exec" ]
  @ binding ~prefix:"real" cp [ ("cc", "cc"); ("exec", "exec") ]

let latency stats =
  List.concat_map
    (fun phase ->
      let pct p =
        match Stats.latency stats phase with
        | Some h when Histogram.count h > 0 ->
            float_of_int (Histogram.percentile h p)
        | _ -> 0.
      in
      [
        (Printf.sprintf "engine.lat.%s_p50" phase, pct 50.);
        (Printf.sprintf "engine.lat.%s_p99" phase, pct 99.);
      ])
    [ "queue_wait"; "cc_wait"; "dep_stall"; "exec" ]

(* Counters exist only where their mechanism ran (rebalancing keys need
   preprocessing, vote keys need shards > 1); absent means 0. *)
let counters stats ~txns ~probes =
  let x name = Option.value (Stats.extra stats name) ~default:0. in
  [
    ("engine.probes_per_txn", per txns (float_of_int probes));
    ("engine.dep_blocks_per_ktxn", per_k txns (x "dep_blocks"));
    ("engine.wakeups_per_ktxn", per_k txns (x "wakeups"));
    ("engine.steals_per_ktxn", per_k txns (x "steals"));
    ("engine.retry_scans_per_ktxn", per_k txns (x "exec_retry_scans"));
    ("version.gc_collected_per_ktxn", per_k txns (x "gc_collected"));
    ("version.slabs_opened", x "slabs_opened");
    ("version.slabs_live", x "slabs_opened" -. x "slabs_retired");
    ("partition_map.rebalances", x "rebalances");
    ("partition_map.segs_moved", x "segs_moved");
    ("partition_map.imbalance_mean", x "cc_imbalance_mean");
    ("shard.cross_txns_per_ktxn", per_k txns (x "cross_shard_txns"));
    ("shard.votes", x "shard_votes");
  ]

(* Largest factor by which any micro-op's ns/cycle ratio strays from the
   median ratio: 1 means the cost model ranks every op as the host does. *)
let max_ratio_dev pairs =
  let ratios = List.map (fun (ns, cyc) -> ns /. Float.max cyc 1e-9) pairs in
  let med = Summary.median ratios in
  List.fold_left (fun acc r -> Float.max acc (Float.max (r /. med) (med /. r))) 1. ratios

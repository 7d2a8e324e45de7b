(* The four workloads. Each stresses a different BOHM layer, so that a
   change to one layer has a workload that exercises it and one that
   bypasses it (README.md has the full table). *)

module Config = Bohm_core.Config
module Ycsb = Bohm_workload.Ycsb

type t = {
  name : string;
  record_bytes : int;
  batch : int;
  cc : int;  (** Sim CC threads per shard. *)
  exec : int;  (** Sim execution threads per shard. *)
  shards : int;
  preprocess : bool;
  cc_rebalance : bool;
  gen : rows:int -> count:int -> seed:int -> Bohm_txn.Txn.t array;
}

let rmw10 = Ycsb.rmw_profile 10
let rmw2_read8 = Ycsb.mixed_profile ~rmws:2 ~reads:8

(* 2048 hot rows at 100k rows; scaled with the table so the hot set keeps
   its share at the reduced sizes (each phase draws its hot rows from one
   hash class, an eighth of the table). *)
let flash_hot_keys rows = max 16 (2048 * rows / 100_000)

let all =
  [
    {
      (* 10RMW uniform 8-byte records (fig4): 10 placeholder inserts
         per txn, CC binds every batch, execution has almost no
         dependencies. *)
      name = "ycsb-cc-bound";
      record_bytes = 8;
      batch = 1000;
      cc = 4;
      exec = 8;
      shards = 1;
      preprocess = false;
      cc_rebalance = false;
      gen =
        (fun ~rows ~count ~seed -> Ycsb.generate ~rows ~theta:0.0 ~count ~seed rmw10);
    };
    {
      (* 2RMW+8R theta=0.9 1000-byte records (fig6-top): execution
         binds every batch through dependency stalls, wakeups and 1 KB
         copies. *)
      name = "ycsb-hot-reads";
      record_bytes = 1000;
      batch = 1000;
      cc = 4;
      exec = 12;
      shards = 1;
      preprocess = false;
      cc_rebalance = false;
      gen =
        (fun ~rows ~count ~seed ->
          Ycsb.generate ~rows ~theta:0.9 ~count ~seed rmw2_read8);
    };
    {
      (* Migrating hot read set, preprocessing and CC rebalancing on:
         the only workload where preprocessing and partition-map
         repacking do work. *)
      name = "flash-crowd";
      record_bytes = 8;
      batch = 250;
      cc = 4;
      exec = 16;
      shards = 1;
      preprocess = true;
      cc_rebalance = true;
      gen =
        (fun ~rows ~count ~seed ->
          Ycsb.generate_flash_crowd ~rows ~count ~seed ~phases:4
            ~hot_keys:(flash_hot_keys rows) ~hot_frac:0.9 rmw2_read8);
    };
    {
      (* 10RMW on 2 shards with 10% cross-shard txns: the only
         workload with shard routing and a vote round. *)
      name = "sharded-cross";
      record_bytes = 8;
      batch = 1000;
      cc = 4;
      exec = 8;
      shards = 2;
      preprocess = true;
      cc_rebalance = true;
      gen =
        (fun ~rows ~count ~seed ->
          Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed ~shards:2
            ~cross_fraction:0.1 rmw10);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let sim_config ?(obs = false) ?batch w =
  Config.make ~cc_threads:w.cc ~exec_threads:w.exec
    ~batch_size:(Option.value batch ~default:w.batch)
    ~shards:w.shards ~preprocess:w.preprocess ~cc_rebalance:w.cc_rebalance ~obs
    ()

(* [Real] always runs two domains, because the reference box has two
   cores: one CC thread, one execution thread, one shard, no
   preprocessing. Pipeline-shape effects are Sim-only. *)
let real_config ?(obs = false) ?batch w =
  Config.make ~cc_threads:1 ~exec_threads:1
    ~batch_size:(Option.value batch ~default:w.batch)
    ~shards:1 ~preprocess:false ~obs ()

let tables ~rows w = Ycsb.tables ~rows ~record_bytes:w.record_bytes

(* Tests for the multi-shard BOHM engine: the key -> shard map, complete
   per-shard pipelines over one shared input log, deterministic
   batch-aligned cross-shard commit (one vote round, no coordinator), the
   merged cross-shard serialization check with its lost-vote mutant, the
   static shard profile of a batch, and the single-shard untouchedness
   guarantee. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Histogram = Bohm_util.Histogram
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Config = Bohm_core.Config
module Runner = Bohm_harness.Runner
module Check = Bohm_harness.Serialization_check
module Ycsb = Bohm_workload.Ycsb
module Conflict_graph = Bohm_analysis_static.Conflict_graph
module Buf = Bohm_obs.Buf
module Recorder = Bohm_obs.Recorder

module Sim_engine = Bohm_core.Engine.Make (Sim)
module Real_engine = Bohm_core.Engine.Make (Real)

let key row = Key.make ~table:0 ~row

(* --- the key -> shard map --- *)

let test_shard_of () =
  (* Range and stability over a spread of shard counts. *)
  List.iter
    (fun shards ->
      for row = 0 to 500 do
        let s = Key.shard_of ~shards (key row) in
        Alcotest.(check bool)
          (Printf.sprintf "shard in range (shards=%d row=%d)" shards row)
          true
          (s >= 0 && s < shards);
        Alcotest.(check int) "stable" s (Key.shard_of ~shards (key row))
      done)
    [ 1; 2; 3; 4; 7 ];
  for row = 0 to 100 do
    Alcotest.(check int) "one shard means shard 0" 0
      (Key.shard_of ~shards:1 (key row))
  done;
  (* Every shard of 4 is populated over a modest key range. *)
  let hit = Array.make 4 false in
  for row = 0 to 999 do
    hit.(Key.shard_of ~shards:4 (key row)) <- true
  done;
  Array.iteri
    (fun s h -> Alcotest.(check bool) (Printf.sprintf "shard %d hit" s) true h)
    hit;
  (* Decorrelated from the CC partition hash: keys of one partition rank
     must spread over several shards (the shard map remixes [Key.hash],
     it does not re-divide it). *)
  let shards_seen = Hashtbl.create 8 in
  for row = 0 to 999 do
    if Key.hash (key row) mod 4 = 0 then
      Hashtbl.replace shards_seen (Key.shard_of ~shards:4 (key row)) ()
  done;
  Alcotest.(check bool) "partition 0 spans shards" true
    (Hashtbl.length shards_seen > 1);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Key.shard_of: shards must be positive") (fun () ->
      ignore (Key.shard_of ~shards:0 (key 1)))

let test_config_shards () =
  Alcotest.(check int) "default" 1 (Config.make ()).Config.shards;
  Alcotest.(check int) "explicit" 4
    (Config.make ~shards:4 ()).Config.shards;
  (match Config.make ~shards:0 () with
  | _ -> Alcotest.fail "shards=0 accepted"
  | exception Invalid_argument _ -> ());
  match Config.make ~shards:63 () with
  | _ -> Alcotest.fail "shards=63 accepted"
  | exception Invalid_argument _ -> ()

(* --- sharded pipeline correctness --- *)

let ycsb_tables rows = Ycsb.tables ~rows ~record_bytes:8

(* A sharded run must commit everything and leave the database in the
   same final state as the single-shard engine fed the same input log:
   the serialization order is the input order in both. *)
let test_sharded_matches_single_shard () =
  let rows = 512 and count = 600 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:5 ~shards:2
      ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
  in
  let run shards =
    let stats, db =
      Sim.run (fun () ->
          let db =
            Sim_engine.create
              (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:64
                 ~shards ~preprocess:true ())
              ~tables:(ycsb_tables rows) Ycsb.initial_value
          in
          (Sim_engine.run db txns, db))
    in
    let values =
      Array.init rows (fun row ->
          Value.to_int (Sim_engine.read_latest db (key row)))
    in
    (stats, values)
  in
  let stats1, values1 = run 1 in
  let stats2, values2 = run 2 in
  Alcotest.(check int) "single-shard commits all" count stats1.Stats.committed;
  Alcotest.(check int) "sharded commits all" count stats2.Stats.committed;
  Alcotest.(check (array int)) "final states agree" values1 values2;
  let extra name stats =
    Option.value ~default:(-1.) (List.assoc_opt name stats.Stats.extra)
  in
  Alcotest.(check bool) "cross-shard txns reported" true
    (extra "cross_shard_txns" stats2 > 0.);
  Alcotest.(check bool) "votes cover every (shard, batch)" true
    (extra "shard_votes" stats2 = 2. *. Float.of_int ((count + 63) / 64))

(* An empty input has no batch and so no vote round: nothing voted,
   whatever the shard count. *)
let test_sharded_empty_run () =
  List.iter
    (fun shards ->
      let stats, vote_log =
        Sim.run (fun () ->
            let db =
              Sim_engine.create (Config.make ~shards ())
                ~tables:(ycsb_tables 64) Ycsb.initial_value
            in
            (Sim_engine.run db [||], Sim_engine.vote_log db))
      in
      let extra name =
        Option.value ~default:(-1.) (List.assoc_opt name stats.Stats.extra)
      in
      let label = Printf.sprintf "%s (shards=%d)" in
      Alcotest.(check (float 0.0)) (label "shard_votes" shards) 0.
        (extra "shard_votes");
      Alcotest.(check int) (label "empty vote log" shards) 0
        (List.length vote_log))
    [ 2; 4 ]

(* Cross-shard serializability on the simulator: multi-seed, 2 and 4
   shards, full vote-log audit plus merged-DSG acyclicity. *)
let test_sharded_serialization_sim () =
  List.iter
    (fun (seed, shards) ->
      let w =
        Check.make_workload ~rows:64 ~txns:240 ~rmws_per_txn:2
          ~reads_per_txn:2 ~seed
      in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
      let db =
        Sim.run (fun () ->
            let db =
              Sim_engine.create
                (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
                   ~shards ~preprocess:true ())
                ~tables Check.initial_value
            in
            ignore (Sim_engine.run db (Check.txns w));
            db)
      in
      let vote_log = Sim_engine.vote_log db in
      Alcotest.(check int)
        (Printf.sprintf "vote log rows (seed=%d shards=%d)" seed shards)
        (shards * ((240 + 31) / 32))
        (List.length vote_log);
      let verdict =
        Check.check_sharded w
          ~final_read:(Sim_engine.read_latest db)
          ~vote_log
      in
      Alcotest.(check string)
        (Printf.sprintf "serializable (seed=%d shards=%d)" seed shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (7, 2); (21, 2); (33, 2); (7, 4); (21, 4); (33, 4) ]

(* The same on the real (Domains) runtime. *)
let test_sharded_serialization_real () =
  List.iter
    (fun (seed, shards) ->
      let w =
        Check.make_workload ~rows:48 ~txns:200 ~rmws_per_txn:2
          ~reads_per_txn:2 ~seed
      in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:48 ~record_bytes:8 |] in
      let db =
        Real_engine.create
          (Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:32 ~shards
             ~preprocess:true ())
          ~tables Check.initial_value
      in
      ignore (Real_engine.run db (Check.txns w));
      let verdict =
        Check.check_sharded w
          ~final_read:(Real_engine.read_latest db)
          ~vote_log:(Real_engine.vote_log db)
      in
      Alcotest.(check string)
        (Printf.sprintf "serializable (real, seed=%d shards=%d)" seed shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (11, 2); (29, 4) ]

(* Migrating hot-set (flash-crowd) workload with adaptive repartitioning
   live in every per-shard pipeline: map publications inside one shard
   must never leak into another's routing or the vote round, and the runs
   must stay provably serializable at 1, 2 and 4 shards. *)
let flash_workload ~seed =
  Check.make_flash_workload ~phases:3 ~hot_keys:12 ~hot_frac:0.9 ~rows:64
    ~txns:240 ~rmws_per_txn:2 ~reads_per_txn:2 ~seed

let test_flash_serialization_sim () =
  List.iter
    (fun (seed, shards) ->
      let w = flash_workload ~seed in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
      let db =
        Sim.run (fun () ->
            let db =
              Sim_engine.create
                (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
                   ~shards ~preprocess:true ())
                ~tables Check.initial_value
            in
            ignore (Sim_engine.run db (Check.txns w));
            db)
      in
      let verdict =
        if shards = 1 then Check.check w ~final_read:(Sim_engine.read_latest db)
        else
          Check.check_sharded w
            ~final_read:(Sim_engine.read_latest db)
            ~vote_log:(Sim_engine.vote_log db)
      in
      Alcotest.(check string)
        (Printf.sprintf "flash serializable (seed=%d shards=%d)" seed shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (43, 1); (43, 2); (47, 2); (43, 4) ]

let test_flash_serialization_real () =
  List.iter
    (fun (seed, shards) ->
      let w = flash_workload ~seed in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
      let db =
        Real_engine.create
          (Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:32 ~shards
             ~preprocess:true ())
          ~tables Check.initial_value
      in
      ignore (Real_engine.run db (Check.txns w));
      let verdict =
        if shards = 1 then
          Check.check w ~final_read:(Real_engine.read_latest db)
        else
          Check.check_sharded w
            ~final_read:(Real_engine.read_latest db)
            ~vote_log:(Real_engine.vote_log db)
      in
      Alcotest.(check string)
        (Printf.sprintf "flash serializable (real, seed=%d shards=%d)" seed
           shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (51, 1); (51, 2); (51, 4) ]

(* The chain audit must stay clean across every shard's store. *)
let test_sharded_chain_audit () =
  let rows = 256 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count:400 ~seed:9 ~shards:4
      ~cross_fraction:0.2 (Ycsb.rmw_profile 4)
  in
  let clean =
    Sim.run (fun () ->
        let db =
          Sim_engine.create
            (Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:64
               ~shards:4 ~preprocess:true ())
            ~tables:(ycsb_tables rows) Ycsb.initial_value
        in
        ignore (Sim_engine.run db txns);
        let report = Bohm_analysis.Report.create () in
        Sim_engine.check_chains db report;
        Bohm_analysis.Report.is_clean report)
  in
  Alcotest.(check bool) "chains clean on all shards" true clean

(* --- lost-vote fault injection --- *)

(* A shard whose abort vote is lost in transit commits a batch it voted
   to abort. The per-shard graphs still merge acyclic — execution is
   deterministic — so only the vote-log audit can catch it, and it
   must. *)
let test_lost_vote_caught () =
  let w =
    Check.make_workload ~rows:64 ~txns:200 ~rmws_per_txn:2 ~reads_per_txn:2
      ~seed:17
  in
  let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
  let db =
    Sim.run (fun () ->
        let db =
          Sim_engine.create
            (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
               ~shards:2 ~preprocess:true ())
            ~tables Check.initial_value
        in
        Sim_engine.inject_lost_vote db ~shard:1 ~batch:0;
        ignore (Sim_engine.run db (Check.txns w));
        db)
  in
  let vote_log = Sim_engine.vote_log db in
  (* The injected row records a local abort of a batch that committed. *)
  Alcotest.(check bool) "injected row present" true
    (List.exists (fun (s, b, local) -> s = 1 && b = 0 && not local) vote_log);
  (* The flat checker sees a serializable history — determinism means the
     data itself is fine; only the vote audit can tell the batch should
     not have committed on shard 1. *)
  Alcotest.(check string) "flat check is blind to it" "serializable"
    (Check.verdict_to_string
       (Check.check w ~final_read:(Sim_engine.read_latest db)));
  match
    Check.check_sharded w
      ~final_read:(Sim_engine.read_latest db)
      ~vote_log
  with
  | Check.Corrupt msg ->
      let has sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the lost vote (%s)" msg)
        true (has "voted to abort")
  | v ->
      Alcotest.failf "lost vote not caught: %s" (Check.verdict_to_string v)

let test_inject_lost_vote_validation () =
  Sim.run (fun () ->
      let db =
        Sim_engine.create
          (Config.make ~cc_threads:1 ~exec_threads:1 ~shards:2 ())
          ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:8 ~record_bytes:8 |]
          (fun _ -> Value.zero)
      in
      (match Sim_engine.inject_lost_vote db ~shard:2 ~batch:0 with
      | () -> Alcotest.fail "out-of-range shard accepted"
      | exception Invalid_argument _ -> ());
      match Sim_engine.inject_lost_vote db ~shard:0 ~batch:(-1) with
      | () -> Alcotest.fail "negative batch accepted"
      | exception Invalid_argument _ -> ())

(* --- static shard profile --- *)

(* Hand-built batch over one shard-0 key [ka] and one shard-1 key [kb]:
   t1 RMWs ka, t2 RMWs kb, t3 reads ka and RMWs kb (homed on shard 0 by
   its first read). Exactly one cross-shard transaction (t3 spans both),
   and of the two edges — wr t1->t3 on ka (homes 0,0) and ww t2->t3 on
   kb (homes 1,0) — exactly the ww crosses home shards. *)
let test_conflict_graph_shard_stats () =
  let find_key_on shard =
    let rec go row =
      if row > 10_000 then Alcotest.fail "no key found for shard"
      else if Key.shard_of ~shards:2 (key row) = shard then key row
      else go (row + 1)
    in
    go 0
  in
  let ka = find_key_on 0 and kb = find_key_on 1 in
  let g =
    Conflict_graph.of_footprints
      [|
        { Conflict_graph.id = 1; reads = [| ka |]; writes = [| ka |] };
        { Conflict_graph.id = 2; reads = [| kb |]; writes = [| kb |] };
        { Conflict_graph.id = 3; reads = [| ka; kb |]; writes = [| kb |] };
      |]
  in
  let s = Conflict_graph.shard_stats g ~shards:2 in
  Alcotest.(check (array int))
    "shard load counts write-set entries" [| 1; 2 |] s.Conflict_graph.shard_load;
  Alcotest.(check int) "one cross-shard txn" 1 s.Conflict_graph.cross_txns;
  Alcotest.(check (float 0.001)) "vote fan-out" 2.0 s.Conflict_graph.vote_fanout;
  Alcotest.(check int) "one cross-home edge" 1 s.Conflict_graph.cross_edges;
  let summary = Conflict_graph.shard_summary g ~shards:2 in
  Alcotest.(check bool) "summary mentions fan-out" true
    (String.length summary > 0);
  match Conflict_graph.shard_stats g ~shards:0 with
  | _ -> Alcotest.fail "shards=0 accepted"
  | exception Invalid_argument _ -> ()

(* --- observability --- *)

(* Sharded runs name their tracks s<shard>/<thread> and record one
   shard_vote latency sample per (shard, batch); and the observed run is
   schedule-identical to the unobserved one. *)
let test_sharded_obs () =
  let rows = 256 and count = 400 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:3 ~shards:2
      ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
  in
  let spec = Runner.ycsb_spec ~rows ~record_bytes:8 in
  let bohm =
    Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:64 ~shards:2
      ~preprocess:true ()
  in
  let plain = Runner.run_sim (Runner.Bohm bohm) spec txns in
  let observed, recorder = Runner.run_sim_obs (Runner.Bohm bohm) spec txns in
  Alcotest.(check int) "all committed" count observed.Stats.committed;
  (* Trace neutrality extends to the sharded driver. *)
  Alcotest.(check (float 0.0)) "same virtual time" plain.Stats.elapsed
    observed.Stats.elapsed;
  Alcotest.(check bool) "same extras" true
    (plain.Stats.extra = observed.Stats.extra);
  let names = List.map Buf.name (Recorder.tracks recorder) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "track %s present" expected)
        true (List.mem expected names))
    [ "driver"; "s0/cc-0"; "s1/cc-0"; "s0/exec-0"; "s1/exec-1"; "s0/pre-0" ];
  let batches = (count + 63) / 64 in
  match Stats.latency observed "shard_vote" with
  | Some h ->
      Alcotest.(check int) "one vote sample per (shard, batch)" (2 * batches)
        (Histogram.count h)
  | None -> Alcotest.fail "shard_vote phase missing"

(* The Chrome export of a sharded run with adaptive repartitioning on:
   every worker track carries its s<shard>/ prefix, every track's B/E
   events balance, the exported document validates (counter tracks
   included), and each shard contributes exactly one shard_vote span per
   batch. *)
let test_sharded_chrome_export () =
  let rows = 256 and count = 400 and shards = 2 and batch = 64 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:7 ~shards
      ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
  in
  let spec = Runner.ycsb_spec ~rows ~record_bytes:8 in
  let bohm =
    Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:batch ~shards
      ~preprocess:true ~cc_rebalance:true ()
  in
  let _stats, recorder = Runner.run_sim_obs (Runner.Bohm bohm) spec txns in
  (* Track-prefix integrity: everything except the driver lives under
     its shard's namespace. *)
  List.iter
    (fun buf ->
      let name = Bohm_obs.Buf.name buf in
      let prefixed =
        name = "driver"
        || List.exists
             (fun s ->
               let p = Printf.sprintf "s%d/" s in
               String.length name > String.length p
               && String.sub name 0 (String.length p) = p)
             (List.init shards Fun.id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "track %s shard-prefixed" name)
        true prefixed)
    (Recorder.tracks recorder);
  (* Balanced begin/end per track, and the vote spans: one per (shard,
     batch), each inside its own shard's namespace. *)
  let batches = (count + batch - 1) / batch in
  let votes = ref 0 in
  List.iter
    (fun buf ->
      let name = Bohm_obs.Buf.name buf in
      let begins = ref 0 and ends = ref 0 in
      List.iter
        (fun (ev : Bohm_obs.Buf.event) ->
          match ev with
          | Bohm_obs.Buf.Begin { name = phase; _ } ->
              incr begins;
              if phase = "shard_vote" then begin
                incr votes;
                Alcotest.(check bool)
                  (Printf.sprintf "vote span on shard track %s" name)
                  true
                  (String.length name > 1 && name.[0] = 's')
              end
          | Bohm_obs.Buf.End _ -> incr ends
          | Bohm_obs.Buf.Instant _ -> ())
        (Bohm_obs.Buf.events buf);
      Alcotest.(check int)
        (Printf.sprintf "balanced B/E on %s" name)
        !begins !ends)
    (Recorder.tracks recorder);
  Alcotest.(check int) "one vote span per (shard, batch)" (shards * batches)
    !votes;
  (* The full export — counter tracks riding along — still validates. *)
  let records = Bohm_obs.Timeline.of_recorder recorder in
  let doc =
    Bohm_obs.Chrome.to_string
      ~counters:(Bohm_obs.Timeline.counters records)
      recorder
  in
  match Bohm_obs.Chrome.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sharded trace invalid: %s" e

(* --- single-shard untouchedness --- *)

(* shards=1 runs through the same driver as the sharded engine, minus the
   vote round. Its virtual time, commits and every extra are pinned to the
   values the dedicated single-pipeline driver produced before the two
   drivers merged, so any charge leaking from the shard layer into a
   one-shard run fails here. *)
let test_single_shard_untouched () =
  let rows = 256 in
  let txns =
    Ycsb.generate ~rows ~theta:0.0 ~count:500 ~seed:41 (Ycsb.rmw_profile 4)
  in
  let config =
    Config.make ~cc_threads:2 ~exec_threads:4 ~shards:1 ~preprocess:true ()
  in
  let stats, vote_log =
    Sim.run (fun () ->
        let db =
          Sim_engine.create config ~tables:(ycsb_tables rows)
            Ycsb.initial_value
        in
        let stats = Sim_engine.run db txns in
        (stats, Sim_engine.vote_log db))
  in
  Alcotest.(check (float 0.0)) "pinned virtual time" 0x1.87d9864c3d78ep-13
    stats.Stats.elapsed;
  Alcotest.(check int) "pinned commits" 500 stats.Stats.committed;
  Alcotest.(check (list (pair string (float 0.0))))
    "pinned extras (no shard keys)"
    [
      ("cc_batch0_start_us", 0x1.0ce353f7ced91p+4);
      ("cc_imbalance_max", 0x1.0e147ae147ae1p+0);
      ("cc_imbalance_mean", 0x1.0e147ae147ae1p+0);
      ("cc_occ_p0", 1890.);
      ("cc_occ_p1", 2110.);
      ("dep_blocks", 34.);
      ("exec_retry_scans", 51.);
      ("gc_collected", 0.);
      ("pre_complete_us", 0x1.f849ba5e353f7p+3);
      ("rebalances", 0.);
      ("segs_moved", 0.);
      ("slabs_opened", 17.);
      ("slabs_retired", 0.);
      ("steals", 7.);
      ("wakeups", 0.);
    ]
    (List.sort compare stats.Stats.extra);
  Alcotest.(check int) "no vote log" 0 (List.length vote_log);
  (* The same configuration observed: unprefixed tracks, no vote spans,
     and the pinned schedule (recording is host-side). *)
  let spec = Runner.ycsb_spec ~rows ~record_bytes:8 in
  let observed, recorder = Runner.run_sim_obs (Runner.Bohm config) spec txns in
  Alcotest.(check (float 0.0)) "observed run keeps the pinned time"
    stats.Stats.elapsed observed.Stats.elapsed;
  let names = List.map Buf.name (Recorder.tracks recorder) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "track %s present" expected)
        true (List.mem expected names))
    [ "driver"; "pre-0"; "cc-0"; "cc-1"; "exec-0"; "exec-3" ];
  List.iter
    (fun buf ->
      Alcotest.(check bool)
        (Printf.sprintf "track %s unprefixed" (Buf.name buf))
        false
        (String.contains (Buf.name buf) '/');
      List.iter
        (function
          | Buf.Begin { name = "shard_vote"; _ } ->
              Alcotest.failf "shard_vote span on %s" (Buf.name buf)
          | _ -> ())
        (Buf.events buf))
    (Recorder.tracks recorder)

(* shards=2 and shards=4 (cc=2/exec=4 per shard, preprocessing on, 10%
   cross-shard, batch 100) pinned like the single-shard run above: virtual
   time, commits, every extra and the whole vote log. The same config run
   through [Runner.run_sim] must reproduce the engine-level numbers. *)
let test_sharded_runs_pinned () =
  let rows = 256 in
  let check shards ~elapsed ~extras =
    let txns =
      Ycsb.generate_sharded ~rows ~theta:0.0 ~count:500 ~seed:41 ~shards
        ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
    in
    let config =
      Config.make ~cc_threads:2 ~exec_threads:4 ~batch_size:100 ~shards
        ~preprocess:true ()
    in
    let stats, vote_log =
      Sim.run (fun () ->
          let db =
            Sim_engine.create config ~tables:(ycsb_tables rows)
              Ycsb.initial_value
          in
          let stats = Sim_engine.run db txns in
          (stats, Sim_engine.vote_log db))
    in
    let label fmt = Printf.sprintf ("shards=%d " ^^ fmt) shards in
    Alcotest.(check (float 0.0)) (label "pinned virtual time") elapsed
      stats.Stats.elapsed;
    Alcotest.(check int) (label "pinned commits") 500 stats.Stats.committed;
    Alcotest.(check (list (pair string (float 0.0))))
      (label "pinned extras") extras
      (List.sort compare stats.Stats.extra);
    (* Five batches per shard, every vote ready. *)
    Alcotest.(check (list (pair (pair int int) bool)))
      (label "pinned vote log")
      (List.concat_map
         (fun s -> List.init 5 (fun b -> ((s, b), true)))
         (List.init shards Fun.id))
      (List.map (fun (s, b, l) -> ((s, b), l)) vote_log);
    let spec = Runner.ycsb_spec ~rows ~record_bytes:8 in
    let via_runner = Runner.run_sim (Runner.Bohm config) spec txns in
    Alcotest.(check (float 0.0)) (label "runner virtual time") elapsed
      via_runner.Stats.elapsed;
    Alcotest.(check (list (pair string (float 0.0))))
      (label "runner extras") extras
      (List.sort compare via_runner.Stats.extra)
  in
  check 2 ~elapsed:0x1.dec3df014695dp-14
    ~extras:
      [
        ("cc_batch0_start_us", 0x1.a333333333333p+3);
        ("cc_imbalance_max", 0x1.258bf258bf259p+0);
        ("cc_imbalance_mean", 0x1.129052cfac875p+0);
        ("cc_occ_p0", 1906.);
        ("cc_occ_p1", 2094.);
        ("cross_shard_txns", 47.);
        ("dep_blocks", 224.);
        ("exec_retry_scans", 274.);
        ("gc_collected", 0.);
        ("pre_complete_us", 0x1.9824dd2f1a9fcp+4);
        ("rebalances", 0.);
        ("segs_moved", 0.);
        ("shard_votes", 10.);
        ("slabs_opened", 21.);
        ("slabs_retired", 0.);
        ("steals", 89.);
        ("wakeups", 0.);
      ];
  check 4 ~elapsed:0x1.9adf36534599bp-14
    ~extras:
      [
        ("cc_batch0_start_us", 0x1.919999999999ap+4);
        ("cc_imbalance_max", 0x1.47711dc47711ep+0);
        ("cc_imbalance_mean", 0x1.214a566bb7268p+0);
        ("cc_occ_p0", 2024.);
        ("cc_occ_p1", 1976.);
        ("cross_shard_txns", 34.);
        ("dep_blocks", 369.);
        ("exec_retry_scans", 601.);
        ("gc_collected", 4.);
        ("pre_complete_us", 0x1.5cd916872b021p+4);
        ("rebalances", 2.);
        ("segs_moved", 17.);
        ("shard_votes", 20.);
        ("slabs_opened", 40.);
        ("slabs_retired", 0.);
        ("steals", 149.);
        ("wakeups", 0.);
      ]

let () =
  Alcotest.run "bohm_shard"
    [
      ( "shard-map",
        [
          Alcotest.test_case "shard_of" `Quick test_shard_of;
          Alcotest.test_case "config shards" `Quick test_config_shards;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "matches single shard" `Quick
            test_sharded_matches_single_shard;
          Alcotest.test_case "chain audit" `Quick test_sharded_chain_audit;
          Alcotest.test_case "empty run casts no vote" `Quick
            test_sharded_empty_run;
          Alcotest.test_case "single shard untouched" `Quick
            test_single_shard_untouched;
          Alcotest.test_case "sharded runs pinned" `Quick
            test_sharded_runs_pinned;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "sim 2/4 shards multi-seed" `Quick
            test_sharded_serialization_sim;
          Alcotest.test_case "flash sim 1/2/4 shards" `Quick
            test_flash_serialization_sim;
          Alcotest.test_case "flash real 1/2/4 shards" `Quick
            test_flash_serialization_real;
          Alcotest.test_case "real 2/4 shards" `Quick
            test_sharded_serialization_real;
          Alcotest.test_case "lost vote caught" `Quick test_lost_vote_caught;
          Alcotest.test_case "inject validation" `Quick
            test_inject_lost_vote_validation;
        ] );
      ( "static",
        [
          Alcotest.test_case "conflict-graph shard stats" `Quick
            test_conflict_graph_shard_stats;
        ] );
      ( "obs",
        [
          Alcotest.test_case "sharded tracks + vote phase" `Quick
            test_sharded_obs;
          Alcotest.test_case "sharded chrome export" `Quick
            test_sharded_chrome_export;
        ] );
    ]

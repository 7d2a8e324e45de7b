(* Tests for the BOHM engine (Bohm_core): serializability, dependency
   resolution, logic aborts, copy-forward, garbage collection, and the
   read-annotation optimization — on both the deterministic simulator and
   the real domains runtime. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Config = Bohm_core.Config
module Reference = Bohm_harness.Reference

module Sim_engine = Bohm_core.Engine.Make (Sim)
module Real_engine = Bohm_core.Engine.Make (Real)
module Version = Bohm_core.Version.Make (Real)

let table = Table.make ~tid:0 ~name:"t" ~rows:64 ~record_bytes:8
let tables = [| table |]
let key row = Key.make ~table:0 ~row
let init_zero _ = Value.zero
let vi = Value.of_int

(* Increment [k] by [n] as a read-modify-write. *)
let incr_txn id k n =
  Txn.make ~id ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
      ctx.Txn.write k (Value.add (ctx.Txn.read k) n);
      Txn.Commit)

(* Move [n] from [a] to [b]. *)
let transfer_txn id a b n =
  Txn.make ~id ~read_set:[ a; b ] ~write_set:[ a; b ] (fun ctx ->
      ctx.Txn.write a (Value.add (ctx.Txn.read a) (-n));
      ctx.Txn.write b (Value.add (ctx.Txn.read b) n);
      Txn.Commit)

let default_config ?(cc = 2) ?(ex = 2) ?(batch = 16) ?(gc = true) ?(annotate = true)
    ?(preprocess = false) ?(rebalance = true) () =
  Config.make ~cc_threads:cc ~exec_threads:ex ~batch_size:batch ~gc
    ~read_annotation:annotate ~preprocess ~cc_rebalance:rebalance ()

let run_sim ?config txns =
  let config = match config with Some c -> c | None -> default_config () in
  Sim.run (fun () ->
      let db = Sim_engine.create config ~tables init_zero in
      let stats = Sim_engine.run db (Array.of_list txns) in
      (db, stats))

(* --- Config --- *)

let test_config_defaults () =
  let c = Config.make () in
  Alcotest.(check int) "cc" 2 c.Config.cc_threads;
  Alcotest.(check int) "exec" 2 c.Config.exec_threads;
  Alcotest.(check int) "batch" 1000 c.Config.batch_size;
  Alcotest.(check bool) "gc" true c.Config.gc;
  Alcotest.(check bool) "annotation" true c.Config.read_annotation;
  Alcotest.(check int) "shards" 1 c.Config.shards;
  Alcotest.(check bool) "preprocess" false c.Config.preprocess;
  Alcotest.(check bool) "cc rebalance" true c.Config.cc_rebalance

let test_config_validation () =
  Alcotest.check_raises "cc" (Invalid_argument "Config.make: cc_threads must be positive")
    (fun () -> ignore (Config.make ~cc_threads:0 ()));
  Alcotest.check_raises "exec"
    (Invalid_argument "Config.make: exec_threads must be positive") (fun () ->
      ignore (Config.make ~exec_threads:(-1) ()));
  Alcotest.check_raises "batch"
    (Invalid_argument "Config.make: batch_size must be positive") (fun () ->
      ignore (Config.make ~batch_size:0 ()))

(* --- Version chains (on the real runtime: plain data structure tests) --- *)

(* Build v0 <- v1(ts=10) <- v2(ts=20) — a bulk-loaded version under two
   slab placeholders — with end stamps set as the engine's CC threads
   would. Returns the slab allocator too, for truncation. *)
let build_chain () =
  let al = Version.alloc_make ~owner:0 () in
  let v0 = Version.initial (vi 0) in
  let v1 = Version.slab_placeholder al ~batch:0 ~ts:10 ~producer:1 ~prev:v0 in
  Version.set_end_ts v0 10;
  let v2 = Version.slab_placeholder al ~batch:0 ~ts:20 ~producer:2 ~prev:v1 in
  Version.set_end_ts v1 20;
  (al, v0, v1, v2)

(* Versions dropped by a Condition-3 truncation of [v]'s chain. *)
let truncate al v ~gc_ts = fst (Version.truncate_retire al v ~gc_ts)

let same_version a b = a == b

let test_version_visibility () =
  let _, v0, v1, v2 = build_chain () in
  let check ts expected =
    match Version.visible_at v2 ~ts with
    | Some v ->
        Alcotest.(check bool) (Printf.sprintf "ts=%d" ts) true (same_version v expected)
    | None -> Alcotest.failf "no version visible at %d" ts
  in
  check 0 v0;
  check 9 v0;
  check 10 v1;
  check 19 v1;
  check 20 v2;
  check 1000 v2

let test_version_placeholder_fields () =
  let _, v0, _, v2 = build_chain () in
  Alcotest.(check bool) "placeholder empty" true
    (Bohm_runtime.Real.Cell.get (Version.data_cell v2) = None);
  Alcotest.(check bool) "initial has data" true
    (Bohm_runtime.Real.Cell.get (Version.data_cell v0) <> None);
  Alcotest.(check int) "end starts at infinity" Version.infinity_ts
    (Version.get_end_ts v2);
  Alcotest.(check bool) "producer recorded" true (Version.producer v2 = Some 2);
  Alcotest.(check bool) "initial has no producer" true
    (Version.producer v0 = None)

let test_version_chain_length () =
  let _, _, _, v2 = build_chain () in
  Alcotest.(check int) "three versions" 3 (Version.chain_length v2)

let test_version_truncate () =
  let al, _, v1, v2 = build_chain () in
  (* gc_ts = 15: v1 (begin 10) is the newest version visible at 15; v0 is
     unreachable for any running transaction and must be cut. *)
  let dropped = truncate al v2 ~gc_ts:15 in
  Alcotest.(check int) "dropped one" 1 dropped;
  Alcotest.(check int) "chain shortened" 2 (Version.chain_length v2);
  Alcotest.(check bool) "keeper cut its prev" true
    (Version.prev v1 = None);
  (* Idempotent. *)
  Alcotest.(check int) "truncate again drops nothing" 0
    (truncate al v2 ~gc_ts:15)

let test_version_truncate_keeps_visible () =
  let al, _, _, v2 = build_chain () in
  (* gc_ts above every version: only the head survives. *)
  ignore (truncate al v2 ~gc_ts:100);
  Alcotest.(check int) "head only" 1 (Version.chain_length v2);
  (* The head is still visible to current and future readers. *)
  Alcotest.(check bool) "head visible" true (Version.visible_at v2 ~ts:100 <> None)

let test_version_truncate_nothing_old_enough () =
  let al, _, _, v2 = build_chain () in
  (* gc_ts older than every non-initial version: only versions below the
     initial one (none) can go. *)
  Alcotest.(check int) "nothing dropped" 0 (truncate al v2 ~gc_ts:5);
  Alcotest.(check int) "chain intact" 3 (Version.chain_length v2)

(* --- basics --- *)

let test_single_increment () =
  let db, stats = run_sim [ incr_txn 0 (key 0) 5 ] in
  Alcotest.(check int) "value" 5 (Value.to_int (Sim_engine.read_latest db (key 0)));
  Alcotest.(check int) "committed" 1 stats.Stats.committed;
  Alcotest.(check int) "no cc aborts" 0 stats.Stats.cc_aborts

let test_hot_key_dependency_chain () =
  (* Every transaction RMWs the same key: a maximal dependency chain. *)
  let txns = List.init 200 (fun i -> incr_txn i (key 3) 1) in
  let db, stats = run_sim txns in
  Alcotest.(check int) "final count" 200
    (Value.to_int (Sim_engine.read_latest db (key 3)));
  Alcotest.(check int) "all committed" 200 stats.Stats.committed

let test_disjoint_keys_all_applied () =
  let txns = List.init 64 (fun i -> incr_txn i (key i) (i + 1)) in
  let db, _ = run_sim txns in
  for i = 0 to 63 do
    Alcotest.(check int)
      (Printf.sprintf "key %d" i)
      (i + 1)
      (Value.to_int (Sim_engine.read_latest db (key i)))
  done

let test_transfers_conserve_total () =
  let rng = Rng.create ~seed:77 in
  let txns =
    List.init 300 (fun i ->
        let a = Rng.int rng 64 and b = Rng.int rng 64 in
        if a = b then incr_txn i (key a) 0
        else transfer_txn i (key a) (key b) (Rng.int rng 10))
  in
  let db, _ = run_sim txns in
  let total = ref 0 in
  for i = 0 to 63 do
    total := !total + Value.to_int (Sim_engine.read_latest db (key i))
  done;
  Alcotest.(check int) "conserved" 0 !total

(* --- serial equivalence: BOHM must equal the serial execution in input
   order, key by key --- *)

let random_rmw_txn rng id =
  let n_keys = 1 + Rng.int rng 4 in
  let keys = List.init n_keys (fun _ -> key (Rng.int rng 64)) in
  let reads = keys and writes = keys in
  Txn.make ~id ~read_set:reads ~write_set:writes (fun ctx ->
      List.iter
        (fun k -> ctx.Txn.write k (Value.add (ctx.Txn.read k) (1 + (id mod 7))))
        keys;
      Txn.Commit)

let check_equals_reference ?config txns =
  let txns = Array.of_list txns in
  let reference = Reference.create ~tables init_zero in
  ignore (Reference.run reference txns);
  let db, stats =
    match config with
    | Some c -> run_sim ~config:c (Array.to_list txns)
    | None -> run_sim (Array.to_list txns)
  in
  for i = 0 to 63 do
    Alcotest.(check int)
      (Printf.sprintf "key %d matches serial order" i)
      (Value.to_int (Reference.read reference (key i)))
      (Value.to_int (Sim_engine.read_latest db (key i)))
  done;
  stats

let test_serial_equivalence_random () =
  let rng = Rng.create ~seed:123 in
  let txns = List.init 400 (random_rmw_txn rng) in
  ignore (check_equals_reference txns)

let test_serial_equivalence_no_annotation () =
  let rng = Rng.create ~seed:321 in
  let txns = List.init 400 (random_rmw_txn rng) in
  ignore (check_equals_reference ~config:(default_config ~annotate:false ()) txns)

let test_serial_equivalence_no_gc () =
  let rng = Rng.create ~seed:55 in
  let txns = List.init 300 (random_rmw_txn rng) in
  ignore (check_equals_reference ~config:(default_config ~gc:false ()) txns)

let test_serial_equivalence_single_threads () =
  let rng = Rng.create ~seed:99 in
  let txns = List.init 200 (random_rmw_txn rng) in
  ignore (check_equals_reference ~config:(default_config ~cc:1 ~ex:1 ()) txns)

let test_serial_equivalence_many_threads () =
  let rng = Rng.create ~seed:101 in
  let txns = List.init 300 (random_rmw_txn rng) in
  ignore (check_equals_reference ~config:(default_config ~cc:4 ~ex:8 ~batch:32 ()) txns)

let test_serial_equivalence_preprocess () =
  let rng = Rng.create ~seed:202 in
  let txns = List.init 300 (random_rmw_txn rng) in
  let stats =
    check_equals_reference
      ~config:(default_config ~cc:4 ~ex:4 ~batch:32 ~preprocess:true ())
      txns
  in
  Alcotest.(check int) "all committed" 300 stats.Stats.committed

(* --- write-skew: the canonical anomaly BOHM must forbid (§2.2) --- *)

let test_no_write_skew () =
  (* x = y = 1 initially; T1: if x+y >= 2 then y := y-1; T2: if x+y >= 2
     then x := x-1. Any serial order leaves x + y = 1; snapshot isolation
     would allow x + y = 0. Run many racing pairs. *)
  let x = key 0 and y = key 1 in
  let dec_if_ok id target =
    Txn.make ~id ~read_set:[ x; y ] ~write_set:[ target ] (fun ctx ->
        let total = Value.to_int (ctx.Txn.read x) + Value.to_int (ctx.Txn.read y) in
        if total >= 2 then begin
          ctx.Txn.write target (Value.add (ctx.Txn.read target) (-1));
          Txn.Commit
        end
        else Txn.Abort)
  in
  let violations = ref 0 in
  for trial = 0 to 19 do
    let final =
      Sim.run ~jitter:(Rng.create ~seed:trial) (fun () ->
          let db =
            Sim_engine.create (default_config ~batch:2 ()) ~tables (fun _ ->
                vi 1)
          in
          ignore (Sim_engine.run db [| dec_if_ok 0 y; dec_if_ok 1 x |]);
          Value.to_int (Sim_engine.read_latest db x)
          + Value.to_int (Sim_engine.read_latest db y))
    in
    if final <> 1 then incr violations
  done;
  Alcotest.(check int) "no write skew in any schedule" 0 !violations

(* --- logic aborts and copy-forward --- *)

let test_logic_abort_discards_writes () =
  let k = key 7 in
  let aborting =
    Txn.make ~id:1 ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
        ctx.Txn.write k (vi 999);
        Txn.Abort)
  in
  let db, stats = run_sim [ incr_txn 0 k 5; aborting; incr_txn 2 k 3 ] in
  Alcotest.(check int) "abort invisible" 8
    (Value.to_int (Sim_engine.read_latest db k));
  Alcotest.(check int) "logic aborts counted" 1 stats.Stats.logic_aborts;
  Alcotest.(check int) "commits counted" 2 stats.Stats.committed

let test_unwritten_declared_key_copies_forward () =
  (* Declared write-set key never written by logic: readers after it must
     see the predecessor value (placeholders cannot stay empty). *)
  let k = key 9 in
  let lazy_txn =
    Txn.make ~id:1 ~read_set:[] ~write_set:[ k ] (fun _ -> Txn.Commit)
  in
  let db, _ = run_sim [ incr_txn 0 k 4; lazy_txn; incr_txn 2 k 1 ] in
  Alcotest.(check int) "copy-forward preserved value" 5
    (Value.to_int (Sim_engine.read_latest db k))

let test_abort_chain_copy_forward () =
  (* A chain of aborting RMWs on one key must propagate the original value
     through every placeholder. *)
  let k = key 2 in
  let aborting i =
    Txn.make ~id:i ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
        ignore (ctx.Txn.read k);
        ctx.Txn.write k (vi (-1));
        Txn.Abort)
  in
  let txns = incr_txn 0 k 42 :: List.init 50 (fun i -> aborting (i + 1)) in
  let db, stats = run_sim txns in
  Alcotest.(check int) "value survives aborts" 42
    (Value.to_int (Sim_engine.read_latest db k));
  Alcotest.(check int) "aborts" 50 stats.Stats.logic_aborts

(* --- access discipline --- *)

let test_undeclared_read_rejected () =
  let bad =
    Txn.make ~id:0 ~read_set:[ key 1 ] ~write_set:[] (fun ctx ->
        ignore (ctx.Txn.read (key 2));
        Txn.Commit)
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (run_sim [ bad ]);
       false
     with Invalid_argument _ -> true)

let test_undeclared_write_rejected () =
  let raises txn =
    try
      ignore (run_sim [ txn ]);
      false
    with Invalid_argument _ -> true
  in
  let bad =
    Txn.make ~id:0 ~read_set:[] ~write_set:[ key 1 ] (fun ctx ->
        ctx.Txn.write (key 2) (vi 1);
        Txn.Commit)
  in
  Alcotest.(check bool) "raises" true (raises bad);
  (* A key declared only in the read set has no placeholder to fill. *)
  let read_only_key =
    Txn.make ~id:0 ~read_set:[ key 3 ] ~write_set:[] (fun ctx ->
        ctx.Txn.write (key 3) (vi 1);
        Txn.Commit)
  in
  Alcotest.(check bool) "read-set-only key raises" true (raises read_only_key)

let test_read_own_write () =
  let k = key 11 in
  let t =
    Txn.make ~id:0 ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
        ctx.Txn.write k (vi 10);
        let seen = ctx.Txn.read k in
        ctx.Txn.write k (Value.add seen 1);
        Txn.Commit)
  in
  let db, _ = run_sim [ t ] in
  Alcotest.(check int) "own write visible" 11
    (Value.to_int (Sim_engine.read_latest db k));
  (* A key declared only in the write set reads its predecessor until the
     transaction writes it, then its own write. *)
  let k2 = key 12 in
  let before = ref (-1) and after = ref (-1) in
  let blind =
    Txn.make ~id:1 ~read_set:[] ~write_set:[ k2 ] (fun ctx ->
        before := Value.to_int (ctx.Txn.read k2);
        ctx.Txn.write k2 (vi (!before + 5));
        after := Value.to_int (ctx.Txn.read k2);
        Txn.Commit)
  in
  let db, _ = run_sim [ incr_txn 0 k2 7; blind ] in
  Alcotest.(check int) "predecessor read" 7 !before;
  Alcotest.(check int) "own write read back" 12 !after;
  Alcotest.(check int) "write installed" 12
    (Value.to_int (Sim_engine.read_latest db k2))

(* --- snapshot reads: a read-only transaction must observe a consistent
   state even while transfers race around it --- *)

let test_read_only_sees_consistent_snapshot () =
  let rng = Rng.create ~seed:4242 in
  let n_readers = 20 in
  let observed = Array.make n_readers (-1) in
  let all_keys = List.init 64 (fun i -> key i) in
  let reader slot id =
    Txn.make ~id ~read_set:all_keys ~write_set:[] (fun ctx ->
        let total =
          List.fold_left
            (fun acc k -> acc + Value.to_int (ctx.Txn.read k))
            0 all_keys
        in
        observed.(slot) <- total;
        Txn.Commit)
  in
  let txns = ref [] in
  let slot = ref 0 in
  for i = 0 to 199 do
    if i mod 10 = 5 && !slot < n_readers then begin
      txns := reader !slot i :: !txns;
      incr slot
    end
    else
      let a = Rng.int rng 64 and b = Rng.int rng 64 in
      if a <> b then txns := transfer_txn i (key a) (key b) (1 + Rng.int rng 5) :: !txns
      else txns := incr_txn i (key a) 0 :: !txns
  done;
  ignore (run_sim (List.rev !txns));
  for s = 0 to !slot - 1 do
    Alcotest.(check int) (Printf.sprintf "reader %d saw balanced total" s) 0
      observed.(s)
  done

(* --- garbage collection --- *)

let test_gc_truncates_chains () =
  let txns = List.init 2000 (fun i -> incr_txn i (key 1) 1) in
  let db, stats =
    run_sim ~config:(default_config ~batch:64 ~gc:true ()) txns
  in
  Alcotest.(check int) "value correct" 2000
    (Value.to_int (Sim_engine.read_latest db (key 1)));
  let collected =
    match Stats.extra stats "gc_collected" with Some f -> int_of_float f | None -> 0.0 |> int_of_float
  in
  Alcotest.(check bool) "collected versions" true (collected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "chain bounded, got %d" (Sim_engine.chain_length db (key 1)))
    true
    (Sim_engine.chain_length db (key 1) < 2000)

let test_no_gc_keeps_all_versions () =
  let txns = List.init 100 (fun i -> incr_txn i (key 1) 1) in
  let db, stats = run_sim ~config:(default_config ~gc:false ()) txns in
  Alcotest.(check int) "chain has all versions" 101
    (Sim_engine.chain_length db (key 1));
  Alcotest.(check bool) "nothing collected" true
    (Stats.extra stats "gc_collected" = Some 0.)

(* --- probe-once memoization and the preprocessing pipeline --- *)

let test_probe_once_per_footprint_key () =
  (* Single-key RMW transactions: the index is probed exactly once per
     transaction (read annotation and write insertion share the slot
     handle). *)
  let n = 200 in
  let txns = Array.init n (fun i -> incr_txn i (key (i mod 32)) 1) in
  let probes =
    Sim.run (fun () ->
        let db = Sim_engine.create (default_config ()) ~tables init_zero in
        ignore (Sim_engine.run db txns);
        Sim_engine.index_probes db)
  in
  Alcotest.(check int) "one probe per txn" n probes

let test_probe_once_with_preprocess () =
  (* With the pipeline stage on, preprocessing resolves every slot and
     nothing downstream probes again. *)
  let n = 128 in
  let txns = Array.init n (fun i -> incr_txn i (key (i mod 16)) 1) in
  let count =
    Sim.run (fun () ->
        let db =
          Sim_engine.create
            (default_config ~cc:2 ~ex:2 ~batch:16 ~preprocess:true ())
            ~tables init_zero
        in
        ignore (Sim_engine.run db txns);
        Sim_engine.index_probes db)
  in
  Alcotest.(check int) "one probe per footprint key" n count

let test_preprocess_pipelines_ahead_of_cc () =
  (* Per-batch publication means CC starts on batch 0 while preprocessing
     is still working through later batches; and under any schedule CC
     must never observe an unstamped transaction (the engine raises
     Invalid_argument if that handshake breaks). *)
  let txns = Array.init 256 (fun i -> incr_txn i (key (i mod 64)) 1) in
  List.iter
    (fun seed ->
      let stats =
        Sim.run ~jitter:(Rng.create ~seed) (fun () ->
            let db =
              Sim_engine.create
                (default_config ~cc:2 ~ex:2 ~batch:16 ~preprocess:true ())
                ~tables init_zero
            in
            Sim_engine.run db txns)
      in
      Alcotest.(check int) "all committed" 256 stats.Stats.committed;
      let extra name =
        match Stats.extra stats name with
        | Some f -> f
        | None -> Alcotest.failf "missing stat %s" name
      in
      let cc0 = extra "cc_batch0_start_us" and pre = extra "pre_complete_us" in
      Alcotest.(check bool)
        (Printf.sprintf
           "seed %d: cc batch 0 (%.1fus) starts before preprocessing \
            completes (%.1fus)"
           seed cc0 pre)
        true
        (cc0 > 0. && pre > 0. && cc0 < pre))
    [ 0; 1; 2; 3; 4 ]

let prop_equivalence_with_and_without_preprocess =
  QCheck.Test.make ~count:10
    ~name:"preprocess on and off equal serial order"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 120 (fun i -> random_rmw_txn rng i) in
      let reference = Reference.create ~tables init_zero in
      ignore (Reference.run reference txns);
      List.for_all
        (fun preprocess ->
          Sim.run ~jitter:(Rng.create ~seed:(seed + 17)) (fun () ->
              let db =
                Sim_engine.create
                  (default_config ~cc:3 ~ex:3 ~batch:16 ~preprocess ())
                  ~tables init_zero
              in
              ignore (Sim_engine.run db txns);
              let ok = ref true in
              for i = 0 to 63 do
                if
                  Value.to_int (Sim_engine.read_latest db (key i))
                  <> Value.to_int (Reference.read reference (key i))
                then ok := false
              done;
              !ok))
        [ false; true ])

(* --- batch-routed dispatch --- *)

(* The serial oracle's fingerprint of [txns] run from an empty database:
   commits, the final value of each of the 64 test keys, and each key's
   chain length with GC off — one bulk-loaded version plus one placeholder
   per transaction writing the key (aborts copy forward, so every
   placeholder stays). An engine run with GC off must match all three
   exactly. *)
let reference_fingerprint txns =
  let reference = Reference.create ~tables init_zero in
  let outcomes = Reference.run reference txns in
  let committed =
    Array.fold_left (fun n o -> if o = Txn.Commit then n + 1 else n) 0 outcomes
  in
  let values =
    Array.init 64 (fun i -> Value.to_int (Reference.read reference (key i)))
  in
  let chains =
    Array.init 64 (fun i ->
        Array.fold_left
          (fun n txn -> if Txn.writes txn (key i) then n + 1 else n)
          1 txns)
  in
  (committed, values, chains)

(* One simulated run of [txns] under [config] and schedule jitter [seed]:
   its stats, the final values of the 64 test keys, their chain lengths,
   and whether the chain audit (dangling-waiter check included) is
   clean. *)
let sim_run config ~seed txns =
  Sim.run ~jitter:(Rng.create ~seed) (fun () ->
      let db = Sim_engine.create config ~tables init_zero in
      let stats = Sim_engine.run db txns in
      let report = Bohm_analysis.Report.create () in
      Sim_engine.check_chains db report;
      ( stats,
        Array.init 64 (fun i ->
            Value.to_int (Sim_engine.read_latest db (key i))),
        Array.init 64 (fun i -> Sim_engine.chain_length db (key i)),
        Bohm_analysis.Report.is_clean report ))

(* [sim_run]'s (commits, values, chains), comparable with
   [reference_fingerprint], and the audit verdict. With GC off, chain
   structure is deterministic (truncation depth depends on scheduling), so
   the triple must equal the reference exactly. *)
let sim_fingerprint config ~seed txns =
  let stats, values, chains, clean = sim_run config ~seed txns in
  ((stats.Stats.committed, values, chains), clean)

(* The same fingerprint from a run on the real domains runtime. *)
let real_fingerprint config txns =
  let db = Real_engine.create config ~tables init_zero in
  let stats = Real_engine.run db txns in
  let report = Bohm_analysis.Report.create () in
  Real_engine.check_chains db report;
  ( ( stats.Stats.committed,
      Array.init 64 (fun i ->
          Value.to_int (Real_engine.read_latest db (key i))),
      Array.init 64 (fun i -> Real_engine.chain_length db (key i)) ),
    Bohm_analysis.Report.is_clean report )

module Check = Bohm_harness.Serialization_check

(* Run the serialization-check workload [w] on a fresh database under
   [config] — simulated, or on the real domains runtime — and require
   clean chains and a serializable verdict. *)
let check_serializable ~real config w =
  let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:48 ~record_bytes:8 |] in
  let clean, final_read =
    if real then begin
      let db = Real_engine.create config ~tables Check.initial_value in
      ignore (Real_engine.run db (Check.txns w));
      let report = Bohm_analysis.Report.create () in
      Real_engine.check_chains db report;
      (Bohm_analysis.Report.is_clean report, Real_engine.read_latest db)
    end
    else
      Sim.run (fun () ->
          let db = Sim_engine.create config ~tables Check.initial_value in
          ignore (Sim_engine.run db (Check.txns w));
          let report = Bohm_analysis.Report.create () in
          Sim_engine.check_chains db report;
          (Bohm_analysis.Report.is_clean report, Sim_engine.read_latest db))
  in
  Alcotest.(check bool) "chains clean" true clean;
  Alcotest.(check string) "serializable" "serializable"
    (match Check.check w ~final_read with
    | Check.Serializable -> "serializable"
    | v -> Check.verdict_to_string v)

(* Routed dispatch (preprocessing on) and scan dispatch (preprocessing
   off) both reproduce the serial oracle. *)
let prop_routed_equals_scan_dispatch =
  QCheck.Test.make ~count:12
    ~name:"routed dispatch equals scan dispatch (commits, values, chains)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 150 (fun i -> random_rmw_txn rng i) in
      let expected = reference_fingerprint txns in
      List.for_all
        (fun preprocess ->
          sim_fingerprint
            (default_config ~cc:3 ~ex:3 ~batch:16 ~gc:false ~preprocess ())
            ~seed:(seed + 5) txns
          = (expected, true))
        [ true; false ])

let test_routed_serialization_check_sim () =
  (* Randomized contended workload with routing and GC on: the run must be
     provably serializable and its chains clean. *)
  check_serializable ~real:false
    (default_config ~cc:3 ~ex:3 ~batch:32 ~preprocess:true ())
    (Check.make_workload ~rows:48 ~txns:300 ~rmws_per_txn:2 ~reads_per_txn:2
       ~seed:7)

let test_routed_serialization_check_real () =
  check_serializable ~real:true
    (default_config ~cc:3 ~ex:3 ~batch:32 ~preprocess:true ())
    (Check.make_workload ~rows:48 ~txns:300 ~rmws_per_txn:2 ~reads_per_txn:2
       ~seed:13)

let test_real_routed_equals_scan () =
  let rng = Rng.create ~seed:909 in
  let txns = Array.init 250 (fun i -> random_rmw_txn rng i) in
  let expected = reference_fingerprint txns in
  List.iter
    (fun (label, preprocess) ->
      let got, clean =
        real_fingerprint
          (default_config ~cc:3 ~ex:3 ~batch:32 ~gc:false ~preprocess ())
          txns
      in
      Alcotest.(check bool) (label ^ ": chains clean") true clean;
      Alcotest.(check bool) (label ^ ": equals reference") true
        (got = expected))
    [ ("routed", true); ("scan", false) ]

(* --- slab-arena version store --- *)

(* Bump a chain of [n] slab placeholders on top of [v0], stamping end
   timestamps as the CC thread would: version [i] begins at [10 * i]. *)
let build_slab_chain al v0 ~n =
  let head = ref v0 in
  for i = 1 to n do
    let v =
      Version.slab_placeholder al ~batch:0 ~ts:(10 * i) ~producer:i
        ~prev:!head
    in
    Version.set_end_ts !head (10 * i);
    head := v
  done;
  !head

let test_slab_chain_spans_slabs () =
  (* A chain crossing >= 3 slabs stays walkable across the boundaries,
     and Condition-3 truncation retires exactly the drained closed slabs
     (the open slab holds the keeper and can never retire). *)
  let al = Version.alloc_make ~owner:0 () in
  let n = (2 * Version.slab_capacity) + 40 in
  let head = build_slab_chain al (Version.initial (vi 0)) ~n in
  Alcotest.(check int) "three slabs opened" 3 (Version.slabs_opened al);
  Alcotest.(check int) "chain intact" (n + 1) (Version.chain_length head);
  (* Visibility resolves across a slab boundary: ts just below the first
     boundary lands on the last entry of slab 0. *)
  (match Version.visible_at head ~ts:((10 * Version.slab_capacity) + 5) with
  | Some v ->
      Alcotest.(check int) "boundary visibility"
        (10 * Version.slab_capacity) (Version.begin_ts v)
  | None -> Alcotest.fail "no version visible at slab boundary");
  (* Keeper is version n-5, in the open third slab: everything below is
     cut, draining the two closed slabs. *)
  let dropped, retired =
    Version.truncate_retire al head ~gc_ts:(10 * (n - 5))
  in
  Alcotest.(check int) "dropped below keeper" (n - 5) dropped;
  Alcotest.(check int) "closed slabs retired" 2 retired;
  Alcotest.(check int) "retire counter" 2 (Version.slabs_retired al);
  Alcotest.(check int) "survivors" 6 (Version.chain_length head);
  Alcotest.(check bool) "head visible" true
    (Version.visible_at head ~ts:(10 * n) <> None);
  (* Idempotent: nothing left below the keeper. *)
  let dropped', retired' =
    Version.truncate_retire al head ~gc_ts:(10 * (n - 5))
  in
  Alcotest.(check (pair int int)) "truncate again is a no-op" (0, 0)
    (dropped', retired')

let test_slab_partial_truncate_then_retire () =
  (* A slab drained across two truncations retires on the call that drops
     its last live entry, not before. *)
  let al = Version.alloc_make ~owner:0 () in
  let n = Version.slab_capacity + 12 in
  let head = build_slab_chain al (Version.initial (vi 0)) ~n in
  Alcotest.(check int) "two slabs" 2 (Version.slabs_opened al);
  (* First cut keeps version 100 in slab 0: slab 0 still has live
     entries, nothing retires. *)
  let dropped1, retired1 = Version.truncate_retire al head ~gc_ts:1000 in
  Alcotest.(check int) "first cut drops" 100 dropped1;
  Alcotest.(check int) "nothing retired yet" 0 retired1;
  (* Second cut moves the keeper into slab 1: slab 0's last live entries
     drop and the whole slab goes at once. *)
  let dropped2, retired2 =
    Version.truncate_retire al head ~gc_ts:(10 * (n - 4))
  in
  Alcotest.(check int) "second cut drops" (n - 4 - 100) dropped2;
  Alcotest.(check int) "drained slab retired" 1 retired2;
  Alcotest.(check int) "retire counter" 1 (Version.slabs_retired al)

let test_slab_batch_boundary_closes_slab () =
  (* Slabs never span batches: a new batch opens a fresh slab even when
     the current one has room, so whole-slab GC frees batch-shaped
     arenas. *)
  let al = Version.alloc_make ~owner:0 () in
  let v0 = Version.initial (vi 0) in
  let v1 = Version.slab_placeholder al ~batch:0 ~ts:10 ~producer:1 ~prev:v0 in
  Version.set_end_ts v0 10;
  let v2 = Version.slab_placeholder al ~batch:1 ~ts:20 ~producer:2 ~prev:v1 in
  Version.set_end_ts v1 20;
  Alcotest.(check int) "one slab per batch" 2 (Version.slabs_opened al);
  (match (Version.slab_coord v1, Version.slab_coord v2) with
  | Some (_, s1, _), Some (_, s2, _) ->
      Alcotest.(check bool) "distinct slabs" true (s1 <> s2)
  | _ -> Alcotest.fail "slab entries carry coordinates");
  Alcotest.(check int) "chain crosses the batch boundary" 3
    (Version.chain_length v2)

let test_slab_mixed_chain_truncate () =
  (* Chains legitimately mix a heap record (the bulk-loaded tail) with
     slab entries above it: truncation cuts across the boundary, counting
     every dropped version but touching live counts only for slab
     entries. *)
  let al = Version.alloc_make ~owner:0 () in
  let head = ref (Version.initial (vi 0)) in
  for i = 1 to 6 do
    let v =
      Version.slab_placeholder al ~batch:0 ~ts:(10 * i) ~producer:i
        ~prev:!head
    in
    Version.set_end_ts !head (10 * i);
    head := v
  done;
  Alcotest.(check int) "mixed chain" 7 (Version.chain_length !head);
  (* Keeper is the ts-50 slab entry: four slab entries and the heap
     record drop; the open slab keeps two live entries, so no retire. *)
  let dropped, retired = Version.truncate_retire al !head ~gc_ts:55 in
  Alcotest.(check int) "dropped across the boundary" 5 dropped;
  Alcotest.(check int) "open slab survives" 0 retired;
  Alcotest.(check int) "survivors" 2 (Version.chain_length !head)

let test_slab_engine_counts_and_state () =
  (* Hot-key RMWs with small batches under the slab store: GC drains
     whole batch-shaped slabs, and the final state and chain audit are
     unaffected. *)
  let txns = List.init 2000 (fun i -> incr_txn i (key 1) 1) in
  let value, stats, clean, chain =
    Sim.run (fun () ->
        let db =
          Sim_engine.create (default_config ~batch:64 ()) ~tables init_zero
        in
        let stats = Sim_engine.run db (Array.of_list txns) in
        let report = Bohm_analysis.Report.create () in
        Sim_engine.check_chains db report;
        ( Value.to_int (Sim_engine.read_latest db (key 1)),
          stats,
          Bohm_analysis.Report.is_clean report,
          Sim_engine.chain_length db (key 1) ))
  in
  Alcotest.(check int) "value correct" 2000 value;
  let extra name =
    match Stats.extra stats name with Some f -> int_of_float f | None -> 0
  in
  Alcotest.(check bool) "slabs opened" true (extra "slabs_opened" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "slabs retired (%d) > 0, bounded by opened (%d)"
       (extra "slabs_retired") (extra "slabs_opened"))
    true
    (extra "slabs_retired" > 0
    && extra "slabs_retired" <= extra "slabs_opened");
  Alcotest.(check bool) "gc still collects" true (extra "gc_collected" > 0);
  Alcotest.(check bool) "chains clean" true clean;
  Alcotest.(check bool) "chain bounded" true (chain < 2000)

(* The slab store must reproduce the serial oracle: exactly with GC off,
   and in commits and final values — the outcomes that stay
   schedule-independent — with GC on. *)
let prop_slabs_equal_reference =
  QCheck.Test.make ~count:12
    ~name:"slab store equals reference (commits, values, chains)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 150 (fun i -> random_rmw_txn rng i) in
      let ((committed, values, _) as expected) = reference_fingerprint txns in
      let run gc =
        sim_fingerprint
          (default_config ~cc:3 ~ex:3 ~batch:16 ~gc ~preprocess:true ())
          ~seed:(seed + 11) txns
      in
      let off, clean_off = run false in
      let (committed_on, values_on, _), clean_on = run true in
      clean_off && clean_on && off = expected
      && (committed_on, values_on) = (committed, values))

(* --- multiple runs share the database --- *)

let test_sequential_runs_accumulate () =
  Sim.run (fun () ->
      let db = Sim_engine.create (default_config ()) ~tables init_zero in
      ignore (Sim_engine.run db [| incr_txn 0 (key 0) 1 |]);
      ignore (Sim_engine.run db [| incr_txn 1 (key 0) 2 |]);
      Alcotest.(check int) "accumulated" 3
        (Value.to_int (Sim_engine.read_latest db (key 0))))

(* The same on the real runtime, driven the way the benchmark's batch
   phase drives it: k single-batch [run] calls on one database, each
   spawning and joining the whole pipeline again, must leave the state
   the serial order of the concatenated stream leaves. *)
let test_real_sequential_runs_equal_reference () =
  let batch = 16 and calls = 12 in
  let rng = Rng.create ~seed:4242 in
  let txns = Array.init (batch * calls) (fun i -> random_rmw_txn rng i) in
  let reference = Reference.create ~tables init_zero in
  ignore (Reference.run reference txns);
  List.iter
    (fun (label, config) ->
      let db = Real_engine.create config ~tables init_zero in
      let committed = ref 0 in
      for c = 0 to calls - 1 do
        let stats = Real_engine.run db (Array.sub txns (c * batch) batch) in
        committed := !committed + stats.Stats.committed
      done;
      let report = Bohm_analysis.Report.create () in
      Real_engine.check_chains db report;
      Alcotest.(check bool) (label ^ ": chains clean") true
        (Bohm_analysis.Report.is_clean report);
      Alcotest.(check int) (label ^ ": committed") (batch * calls) !committed;
      for i = 0 to 63 do
        Alcotest.(check int)
          (Printf.sprintf "%s: key %d" label i)
          (Value.to_int (Reference.read reference (key i)))
          (Value.to_int (Real_engine.read_latest db (key i)))
      done)
    [
      ( "cc=1/exec=1 (the benchmark's Real config)",
        default_config ~cc:1 ~ex:1 ~batch () );
      ( "cc=2/exec=2 preprocess+rebalance",
        default_config ~cc:2 ~ex:2 ~batch ~preprocess:true ~rebalance:true () );
      ( "shards=2",
        Config.make ~cc_threads:1 ~exec_threads:1 ~batch_size:batch ~shards:2
          ~preprocess:true () );
    ]

(* Heap BOHM keeps per transaction on [Real]. Each wrapper stays
   reachable from the versions it produced, so its footprint state (map,
   stamps, slot cache) and its transaction's key sets are retained as
   long as those versions live. Live words after a full major GC, taken
   before the transactions are generated and after the run, divided by
   the transaction count: 2,000 10RMW transactions on 8-byte records at
   cc=1/exec=1, the benchmark's Real setting. The count is the same run
   to run: 578.7 words with record keys, a key column in the footprint
   map and option-boxed stamps, 389.7 without them. The bound sits
   between the two. *)
let test_real_retained_per_txn () =
  let module Ycsb = Bohm_workload.Ycsb in
  let n = 2_000 and rows = 100_000 in
  let db =
    Real_engine.create
      (default_config ~cc:1 ~ex:1 ~batch:1000 ())
      ~tables:(Ycsb.tables ~rows ~record_bytes:8)
      Ycsb.initial_value
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let txns =
    Ycsb.generate ~rows ~theta:0.0 ~count:n ~seed:1 (Ycsb.rmw_profile 10)
  in
  let stats = Real_engine.run db txns in
  let after = live () in
  ignore (Sys.opaque_identity (db, txns));
  Alcotest.(check int) "committed" n stats.Stats.committed;
  let words = float_of_int (after - before) /. float_of_int n in
  if words > 480. then
    Alcotest.failf "retained %.1f words/txn, bound 480" words

let test_empty_run () =
  let _, stats = run_sim [] in
  Alcotest.(check int) "no txns" 0 stats.Stats.txns

(* --- real runtime --- *)

let test_real_runtime_increments () =
  let db = Real_engine.create (default_config ~cc:2 ~ex:2 ()) ~tables init_zero in
  let txns = Array.init 500 (fun i -> incr_txn i (key (i mod 16)) 1) in
  let stats = Real_engine.run db txns in
  Alcotest.(check int) "committed" 500 stats.Stats.committed;
  for i = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "key %d" i)
      (500 / 16 + (if i < 500 mod 16 then 1 else 0))
      (Value.to_int (Real_engine.read_latest db (key i)))
  done

let test_real_runtime_serial_equivalence () =
  let rng = Rng.create ~seed:888 in
  let txns = Array.init 300 (fun i -> random_rmw_txn rng i) in
  let reference = Reference.create ~tables init_zero in
  ignore (Reference.run reference txns);
  let db = Real_engine.create (default_config ~cc:2 ~ex:3 ~batch:32 ()) ~tables init_zero in
  ignore (Real_engine.run db txns);
  for i = 0 to 63 do
    Alcotest.(check int)
      (Printf.sprintf "key %d" i)
      (Value.to_int (Reference.read reference (key i)))
      (Value.to_int (Real_engine.read_latest db (key i)))
  done

(* --- properties: random workloads, random schedules --- *)

let prop_serial_equivalence_under_random_schedules =
  QCheck.Test.make ~count:20 ~name:"BOHM equals serial order under random schedules"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 120 (fun i -> random_rmw_txn rng i) in
      let reference = Reference.create ~tables init_zero in
      ignore (Reference.run reference txns);
      Sim.run ~jitter:(Rng.create ~seed:(seed + 1)) (fun () ->
          let db =
            Sim_engine.create
              (default_config ~cc:3 ~ex:3 ~batch:16 ())
              ~tables init_zero
          in
          ignore (Sim_engine.run db txns);
          let ok = ref true in
          for i = 0 to 63 do
            if
              Value.to_int (Sim_engine.read_latest db (key i))
              <> Value.to_int (Reference.read reference (key i))
            then ok := false
          done;
          !ok))

let prop_transfers_conserve =
  QCheck.Test.make ~count:20 ~name:"transfers conserve total under random schedules"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns =
        Array.init 150 (fun i ->
            let a = Rng.int rng 64 and b = Rng.int rng 64 in
            if a = b then incr_txn i (key a) 0
            else transfer_txn i (key a) (key b) (Rng.int rng 9))
      in
      Sim.run ~jitter:(Rng.create ~seed:(seed * 3)) (fun () ->
          let db = Sim_engine.create (default_config ()) ~tables init_zero in
          ignore (Sim_engine.run db txns);
          let total = ref 0 in
          for i = 0 to 63 do
            total := !total + Value.to_int (Sim_engine.read_latest db (key i))
          done;
          !total = 0))

(* --- fill-triggered dependency wakeup --- *)

(* Parking engages only at 8+ execution threads (below that the engine
   keeps the retry discipline — the adaptive spin-then-park policy
   documented in the engine), so every test that must trace the waiter
   protocol runs with 8 execution threads, and the retry path is exercised
   with 4. *)

let wakeup_config ?(ex = 8) ?(batch = 16) ?(gc = true) ?(preprocess = true) ()
    =
  Config.make ~cc_threads:2 ~exec_threads:ex ~batch_size:batch ~gc ~preprocess
    ()

(* Both the wakeup (8 exec threads) and the retry (4) paths must
   reproduce the serial oracle exactly (GC off). *)
let prop_wakeup_equals_retry =
  QCheck.Test.make ~count:12
    ~name:"fill-triggered wakeup equals retry polling (commits, values, chains)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 150 (fun i -> random_rmw_txn rng i) in
      let ((committed, _, _) as expected) = reference_fingerprint txns in
      committed = Array.length txns
      && List.for_all
           (fun ex ->
             sim_fingerprint (wakeup_config ~ex ~gc:false ()) ~seed txns
             = (expected, true))
           [ 8; 4 ])

(* Lost-wakeup stress: every transaction RMWs the same key, so each batch
   is one maximal dependency chain and every fill races the next
   transaction's registration. A lost wakeup leaves a parked transaction
   that is never re-attempted — its thread never finishes the batch and
   the simulator's deadlock detector aborts the run (the oracle); a
   duplicated wakeup would double-apply an increment and break the final
   value; a waiter registered but never claimed survives to the chain
   audit as a dangling waiter. Schedule jitter and a batch size varied
   with the seed shift the register-vs-fill interleaving across runs. *)
let prop_no_lost_wakeup_under_hot_key_chains =
  QCheck.Test.make ~count:15
    ~name:"hot-key chains: no lost or duplicated wakeup"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let count = 200 in
      let batch = 4 + (seed mod 3 * 12) in
      let txns = Array.init count (fun i -> incr_txn i (key 0) 1) in
      Sim.run ~jitter:(Rng.create ~seed) (fun () ->
          let db =
            Sim_engine.create
              (wakeup_config ~batch ())
              ~tables init_zero
          in
          let stats = Sim_engine.run db txns in
          let report = Bohm_analysis.Report.create () in
          Sim_engine.check_chains db report;
          stats.Stats.committed = count
          && Value.to_int (Sim_engine.read_latest db (key 0)) = count
          && Bohm_analysis.Report.is_clean report))

let test_wakeup_serialization_check_sim () =
  (* Randomized contended workload with parking engaged: the run must be
     provably serializable and its chains clean (no unfilled placeholder,
     no dangling waiter). *)
  check_serializable ~real:false (wakeup_config ~batch:32 ())
    (Check.make_workload ~rows:48 ~txns:400 ~rmws_per_txn:2 ~reads_per_txn:2
       ~seed:17)

let test_wakeup_serialization_check_real () =
  check_serializable ~real:true
    (wakeup_config ~batch:32 ~preprocess:false ())
    (Check.make_workload ~rows:48 ~txns:400 ~rmws_per_txn:2 ~reads_per_txn:2
       ~seed:19)

let test_real_wakeup_equals_retry () =
  let rng = Rng.create ~seed:1117 in
  let txns = Array.init 250 (fun i -> random_rmw_txn rng i) in
  let ((committed, _, _) as expected) = reference_fingerprint txns in
  Alcotest.(check int) "all committed" (Array.length txns) committed;
  List.iter
    (fun (label, ex) ->
      let got, clean =
        real_fingerprint
          (wakeup_config ~ex ~batch:32 ~gc:false ~preprocess:false ())
          txns
      in
      Alcotest.(check bool) (label ^ ": chains clean") true clean;
      Alcotest.(check bool) (label ^ ": equals reference") true
        (got = expected))
    [ ("wakeup", 8); ("retry", 4) ]

let test_real_no_lost_wakeup_hot_key () =
  (* The hot-key chain stress on the real domains runtime: genuinely
     concurrent register-vs-fill races. A lost wakeup hangs the run; a
     duplicated one breaks the final count. *)
  let count = 300 in
  let txns = Array.init count (fun i -> incr_txn i (key 0) 1) in
  let db =
    Real_engine.create
      (wakeup_config ~batch:8 ~preprocess:false ())
      ~tables init_zero
  in
  let stats = Real_engine.run db txns in
  let report = Bohm_analysis.Report.create () in
  Real_engine.check_chains db report;
  Alcotest.(check int) "all committed" count stats.Stats.committed;
  Alcotest.(check int) "final value" count
    (Value.to_int (Real_engine.read_latest db (key 0)));
  Alcotest.(check bool) "chains clean (no dangling waiter)" true
    (Bohm_analysis.Report.is_clean report)

(* --- adaptive CC repartitioning (epoch-versioned partition maps) --- *)

module Pmap = Bohm_core.Partition_map

let test_pmap_static () =
  List.iter
    (fun m ->
      let t = Pmap.static ~parts:m in
      Alcotest.(check int) "epoch" 0 (Pmap.epoch t);
      Alcotest.(check int) "parts" m (Pmap.parts t);
      Alcotest.(check int) "nsegs" (Pmap.segs_per_part * m) (Pmap.nsegs t);
      (* The epoch-0 map must reduce to the engine's historical
         [hash mod parts] for every hash. *)
      List.iter
        (fun h ->
          Alcotest.(check int)
            (Printf.sprintf "m=%d h=%d" m h)
            (h mod m)
            (Pmap.partition_of_hash t h))
        [ 0; 1; 7; 8; 63; 64; 1_000_003; max_int ])
    [ 1; 2; 4; 8 ]

let test_pmap_rebalance_lpt () =
  let base = Pmap.static ~parts:2 in
  let nsegs = Pmap.nsegs base in
  (* Two heavy segments (0 and 8) both statically owned by partition 0
     (even segments), light uniform load elsewhere: the classic collision
     the LPT repack must split. *)
  let load = Array.make nsegs 10 in
  load.(0) <- 100;
  load.(8) <- 100;
  let rebal () =
    Pmap.rebalance base ~load ~min_samples:1 ~threshold:1.25 ~margin:0.05
  in
  match rebal () with
  | None -> Alcotest.fail "expected a rebalanced map"
  | Some m ->
      Alcotest.(check int) "epoch bumped" 1 (Pmap.epoch m);
      Alcotest.(check bool) "segments moved" true (Pmap.moved base m > 0);
      (* The two heavy segments end up on different partitions, and the
         repack strictly improves the measured imbalance. *)
      Alcotest.(check bool) "heavy segments split" true
        (Pmap.partition_of_segment m 0 <> Pmap.partition_of_segment m 8);
      let imb t = Pmap.imbalance (Pmap.load_per_partition t load) in
      Alcotest.(check bool) "imbalance reduced" true (imb m < imb base);
      (* Deterministic: the same inputs repack to the same assignment. *)
      (match rebal () with
      | None -> Alcotest.fail "second rebalance disagreed"
      | Some m' ->
          for s = 0 to nsegs - 1 do
            Alcotest.(check int)
              (Printf.sprintf "seg %d deterministic" s)
              (Pmap.partition_of_segment m s)
              (Pmap.partition_of_segment m' s)
          done)

let test_pmap_hysteresis () =
  let base = Pmap.static ~parts:2 in
  let nsegs = Pmap.nsegs base in
  let gate name load ~min_samples =
    Alcotest.(check bool) name true
      (Pmap.rebalance base ~load ~min_samples ~threshold:1.25 ~margin:0.05
      = None)
  in
  (* Uniform load never churns. *)
  gate "uniform" (Array.make nsegs 50) ~min_samples:1;
  (* Too few samples to trust the measurement. *)
  let skewed = Array.make nsegs 1 in
  skewed.(0) <- 30;
  gate "insufficient samples" skewed ~min_samples:1_000;
  (* One mega-segment: imbalanced, but moving whole segments cannot
     improve the max, so the margin gate keeps the base map. *)
  let mega = Array.make nsegs 0 in
  mega.(0) <- 1_000;
  gate "indivisible hot segment" mega ~min_samples:1;
  (* Single partition: nothing to balance, ever. *)
  let one = Pmap.static ~parts:1 in
  Alcotest.(check bool) "single partition" true
    (Pmap.rebalance one
       ~load:(Array.make (Pmap.nsegs one) 99)
       ~min_samples:1 ~threshold:1.25 ~margin:0.05
    = None)

(* Commits, final values, chain lengths, audit verdict and throughput of
   one simulated preprocessing run — everything that must be bit-for-bit
   identical between rebalance on and off when the hysteresis never
   publishes (uniform load): occupancy is measured host-side, so a map
   that never changes must leave the charged schedule untouched. Batch 10
   keeps every batch's occupancy (<= 10 txns x 4 keys x 2 entries) under
   the rebalancer's min-samples gate (4 x 24 segments), so the uniform
   workload provably never publishes. *)
let rebalance_fingerprint ~rebalance ~seed txns =
  let stats, values, chains, clean =
    sim_run
      (default_config ~cc:3 ~ex:3 ~batch:10 ~gc:false ~preprocess:true
         ~rebalance ())
      ~seed txns
  in
  ( stats.Stats.committed,
    values,
    chains,
    clean,
    Stats.throughput stats,
    Stats.extra stats "rebalances" )

let prop_rebalance_off_equals_on_uniform =
  QCheck.Test.make ~count:12
    ~name:"rebalance on equals off under uniform load (bit-for-bit)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 150 (fun i -> random_rmw_txn rng i) in
      let committed_on, values_on, chains_on, clean_on, tput_on, rb_on =
        rebalance_fingerprint ~rebalance:true ~seed:(seed + 23) txns
      in
      let committed_off, values_off, chains_off, clean_off, tput_off, rb_off =
        rebalance_fingerprint ~rebalance:false ~seed:(seed + 23) txns
      in
      clean_on && clean_off
      && committed_on = committed_off
      && values_on = values_off
      && chains_on = chains_off
      && tput_on = tput_off
      (* Live feature reports its (zero) publications; off emits no keys. *)
      && rb_on = Some 0.
      && rb_off = None)

(* Rows of the 64-row test table in hash class [cls] (mod 8): with cc=2
   the engine has nsegs=16, so class-0 rows occupy exactly segments 0 and
   8 — both statically partition 0. Hammering them gives the rebalancer a
   measurable, splittable imbalance. *)
let class_rows cls =
  List.filter (fun r -> Key.hash (key r) mod 8 = cls) (List.init 64 Fun.id)

let rmw3_txn id a b c =
  let ks = [ key a; key b; key c ] in
  Txn.make ~id ~read_set:ks ~write_set:ks (fun ctx ->
      List.iter (fun k -> ctx.Txn.write k (Value.add (ctx.Txn.read k) 1)) ks;
      Txn.Commit)

(* Skewed workload for the live-rebalance tests: every transaction RMWs
   two distinct hot-class rows plus one cold row. *)
let hot_class_txns count =
  let hot = Array.of_list (class_rows 0) in
  let cold =
    Array.of_list
      (List.filter (fun r -> Key.hash (key r) mod 8 <> 0) (List.init 64 Fun.id))
  in
  let nh = Array.length hot and nc = Array.length cold in
  Alcotest.(check bool) "enough hot rows" true (nh >= 2);
  Array.init count (fun i ->
      rmw3_txn i hot.(i mod nh) hot.((i + 1) mod nh) cold.(i mod nc))

let test_rebalance_live_extras () =
  let txns = hot_class_txns 300 in
  let run rebalance =
    Sim.run (fun () ->
        let db =
          Sim_engine.create
            (default_config ~cc:2 ~ex:3 ~batch:32 ~preprocess:true ~rebalance
               ())
            ~tables init_zero
        in
        Sim_engine.run db txns)
  in
  let stats = run true in
  Alcotest.(check int) "all committed" 300 stats.Stats.committed;
  let extra name =
    match Stats.extra stats name with
    | Some f -> f
    | None -> Alcotest.failf "missing stat %s" name
  in
  Alcotest.(check bool) "rebalances fired" true (extra "rebalances" >= 1.);
  Alcotest.(check bool) "segments moved" true (extra "segs_moved" >= 1.);
  Alcotest.(check bool) "imbalance measured" true
    (extra "cc_imbalance_max" >= 1.25);
  Alcotest.(check bool) "mean imbalance sane" true
    (extra "cc_imbalance_mean" >= 1.0);
  (* Per-partition occupancy covers every footprint entry exactly once
     (each RMW key is one read entry plus one write entry). *)
  Alcotest.(check int) "occupancy total" (300 * 6)
    (int_of_float (extra "cc_occ_p0" +. extra "cc_occ_p1"));
  (* Feature off: no rebalance keys at all (bit-identical stat surface to
     the pre-feature engine). *)
  let off = run false in
  Alcotest.(check bool) "off emits no extras" true
    (Stats.extra off "rebalances" = None
    && Stats.extra off "cc_occ_p0" = None)

let test_rebalance_live_equals_reference () =
  (* Live mid-run map publications must not change any committed value:
     the skewed run under adaptive repartitioning still equals the serial
     reference execution. *)
  ignore
    (check_equals_reference
       ~config:
         (default_config ~cc:2 ~ex:3 ~batch:32 ~preprocess:true
            ~rebalance:true ())
       (Array.to_list (hot_class_txns 300)))

let test_flash_serialization_check_sim () =
  (* Migrating hot-set workload under live repartitioning: the run must be
     provably serializable and its chains clean under the map-aware
     audit. *)
  check_serializable ~real:false
    (default_config ~cc:3 ~ex:3 ~batch:32 ~preprocess:true ~rebalance:true ())
    (Check.make_flash_workload ~phases:3 ~hot_keys:12 ~hot_frac:0.9 ~rows:48
       ~txns:300 ~rmws_per_txn:2 ~reads_per_txn:2 ~seed:29)

let test_flash_serialization_check_real () =
  check_serializable ~real:true
    (default_config ~cc:3 ~ex:3 ~batch:32 ~preprocess:true ~rebalance:true ())
    (Check.make_flash_workload ~phases:3 ~hot_keys:12 ~hot_frac:0.9 ~rows:48
       ~txns:300 ~rmws_per_txn:2 ~reads_per_txn:2 ~seed:31)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "config",
      [
        Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
    ( "version",
      [
        Alcotest.test_case "visibility" `Quick test_version_visibility;
        Alcotest.test_case "placeholder fields" `Quick test_version_placeholder_fields;
        Alcotest.test_case "chain length" `Quick test_version_chain_length;
        Alcotest.test_case "truncate" `Quick test_version_truncate;
        Alcotest.test_case "truncate keeps visible" `Quick test_version_truncate_keeps_visible;
        Alcotest.test_case "truncate below floor" `Quick test_version_truncate_nothing_old_enough;
      ] );
    ( "bohm-basics",
      [
        Alcotest.test_case "single increment" `Quick test_single_increment;
        Alcotest.test_case "hot key dependency chain" `Quick test_hot_key_dependency_chain;
        Alcotest.test_case "disjoint keys" `Quick test_disjoint_keys_all_applied;
        Alcotest.test_case "transfers conserve" `Quick test_transfers_conserve_total;
        Alcotest.test_case "empty run" `Quick test_empty_run;
        Alcotest.test_case "sequential runs" `Quick test_sequential_runs_accumulate;
      ] );
    ( "bohm-serializability",
      [
        Alcotest.test_case "serial equivalence (random)" `Quick test_serial_equivalence_random;
        Alcotest.test_case "serial equivalence (no annotation)" `Quick
          test_serial_equivalence_no_annotation;
        Alcotest.test_case "serial equivalence (no gc)" `Quick test_serial_equivalence_no_gc;
        Alcotest.test_case "serial equivalence (1cc/1exec)" `Quick
          test_serial_equivalence_single_threads;
        Alcotest.test_case "serial equivalence (4cc/8exec)" `Quick
          test_serial_equivalence_many_threads;
        Alcotest.test_case "serial equivalence (preprocess)" `Quick
          test_serial_equivalence_preprocess;
        Alcotest.test_case "no write skew" `Quick test_no_write_skew;
        Alcotest.test_case "read-only snapshot consistency" `Quick
          test_read_only_sees_consistent_snapshot;
      ]
      @ qcheck
          [
            prop_serial_equivalence_under_random_schedules;
            prop_transfers_conserve;
            prop_equivalence_with_and_without_preprocess;
          ] );
    ( "bohm-routing",
      [
        Alcotest.test_case "serialization check, routed (sim)" `Quick
          test_routed_serialization_check_sim;
        Alcotest.test_case "serialization check, routed (real)" `Quick
          test_routed_serialization_check_real;
        Alcotest.test_case "routed equals scan (real)" `Quick
          test_real_routed_equals_scan;
      ]
      @ qcheck [ prop_routed_equals_scan_dispatch ] );
    ( "bohm-slabs",
      [
        Alcotest.test_case "chain spans three slabs" `Quick
          test_slab_chain_spans_slabs;
        Alcotest.test_case "partial truncate then retire" `Quick
          test_slab_partial_truncate_then_retire;
        Alcotest.test_case "batch boundary closes slab" `Quick
          test_slab_batch_boundary_closes_slab;
        Alcotest.test_case "mixed heap/slab chain truncates" `Quick
          test_slab_mixed_chain_truncate;
        Alcotest.test_case "slab engine counters and state" `Quick
          test_slab_engine_counts_and_state;
      ]
      @ qcheck [ prop_slabs_equal_reference ] );
    ( "bohm-wakeup",
      [
        Alcotest.test_case "serialization check, wakeup (sim)" `Quick
          test_wakeup_serialization_check_sim;
        Alcotest.test_case "serialization check, wakeup (real)" `Quick
          test_wakeup_serialization_check_real;
        Alcotest.test_case "wakeup equals retry (real)" `Quick
          test_real_wakeup_equals_retry;
        Alcotest.test_case "hot-key lost-wakeup stress (real)" `Quick
          test_real_no_lost_wakeup_hot_key;
      ]
      @ qcheck
          [
            prop_wakeup_equals_retry;
            prop_no_lost_wakeup_under_hot_key_chains;
          ] );
    ( "bohm-probe-memo",
      [
        Alcotest.test_case "one probe per footprint key" `Quick
          test_probe_once_per_footprint_key;
        Alcotest.test_case "one probe with preprocessing" `Quick
          test_probe_once_with_preprocess;
        Alcotest.test_case "preprocessing pipelines ahead of cc" `Quick
          test_preprocess_pipelines_ahead_of_cc;
      ] );
    ( "bohm-aborts",
      [
        Alcotest.test_case "logic abort discards writes" `Quick test_logic_abort_discards_writes;
        Alcotest.test_case "unwritten key copies forward" `Quick
          test_unwritten_declared_key_copies_forward;
        Alcotest.test_case "abort chain copy-forward" `Quick test_abort_chain_copy_forward;
      ] );
    ( "bohm-access",
      [
        Alcotest.test_case "undeclared read rejected" `Quick test_undeclared_read_rejected;
        Alcotest.test_case "undeclared write rejected" `Quick test_undeclared_write_rejected;
        Alcotest.test_case "read own write" `Quick test_read_own_write;
      ] );
    ( "bohm-gc",
      [
        Alcotest.test_case "gc truncates chains" `Quick test_gc_truncates_chains;
        Alcotest.test_case "no gc keeps versions" `Quick test_no_gc_keeps_all_versions;
      ] );
    ( "bohm-real-runtime",
      [
        Alcotest.test_case "increments" `Quick test_real_runtime_increments;
        Alcotest.test_case "serial equivalence" `Quick test_real_runtime_serial_equivalence;
        Alcotest.test_case "sequential runs equal reference" `Quick
          test_real_sequential_runs_equal_reference;
        Alcotest.test_case "retained heap per transaction" `Quick
          test_real_retained_per_txn;
      ] );
    ( "bohm-rebalance",
      [
        Alcotest.test_case "partition map static = hash mod m" `Quick
          test_pmap_static;
        Alcotest.test_case "LPT repack splits heavy segments" `Quick
          test_pmap_rebalance_lpt;
        Alcotest.test_case "hysteresis gates" `Quick test_pmap_hysteresis;
        Alcotest.test_case "live rebalance extras" `Quick
          test_rebalance_live_extras;
        Alcotest.test_case "live rebalance equals reference" `Quick
          test_rebalance_live_equals_reference;
        Alcotest.test_case "serialization check, flash (sim)" `Quick
          test_flash_serialization_check_sim;
        Alcotest.test_case "serialization check, flash (real)" `Quick
          test_flash_serialization_check_real;
      ]
      @ qcheck [ prop_rebalance_off_equals_on_uniform ] );
  ]

let () = Alcotest.run "bohm_core" suite

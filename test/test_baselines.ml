(* Tests for the baseline engines: Hekaton-style optimistic MVCC, Snapshot
   Isolation, Silo-style OCC, and two-phase locking. The serializable
   engines must forbid write-skew and lost updates under any schedule; SI
   must demonstrably allow write-skew (that is the paper's point). *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Reference = Bohm_harness.Reference
module Runner = Bohm_harness.Runner
module Ycsb = Bohm_workload.Ycsb
module Histogram = Bohm_util.Histogram
module Recorder = Bohm_obs.Recorder
module Buf = Bohm_obs.Buf

module Hek_sim = Bohm_hekaton.Engine.Make (Sim)
module Hek_real = Bohm_hekaton.Engine.Make (Real)
module Silo_sim = Bohm_silo.Engine.Make (Sim)
module Silo_real = Bohm_silo.Engine.Make (Real)
module Twopl_sim = Bohm_twopl.Engine.Make (Sim)
module Twopl_real = Bohm_twopl.Engine.Make (Real)
module Mvto_sim = Bohm_mvto.Engine.Make (Sim)
module Locks_sim = Bohm_twopl.Lock_table.Make (Sim)

let table = Table.make ~tid:0 ~name:"t" ~rows:64 ~record_bytes:8
let tables = [| table |]
let key row = Key.make ~table:0 ~row
let init_zero _ = Value.zero
let vi = Value.of_int

let incr_txn id k n =
  Txn.make ~id ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
      ctx.Txn.write k (Value.add (ctx.Txn.read k) n);
      Txn.Commit)

let transfer_txn id a b n =
  Txn.make ~id ~read_set:[ a; b ] ~write_set:[ a; b ] (fun ctx ->
      ctx.Txn.write a (Value.add (ctx.Txn.read a) (-n));
      ctx.Txn.write b (Value.add (ctx.Txn.read b) n);
      Txn.Commit)

(* Uniform driver so every engine runs the same scenarios. [engine] is
   the same engine behind [Runner] at four workers; [pin] is its recorded
   run of {!pin_txns} (see {!pin_lines}). *)
type driver = {
  name : string;
  engine : Runner.engine;
  run_sim :
    ?jitter:Rng.t ->
    workers:int ->
    init:(Key.t -> Value.t) ->
    Txn.t array ->
    Stats.t * (Key.t -> int);
  pin : string list;
}

let hekaton_driver mode name engine pin =
  {
    name;
    engine;
    pin;
    run_sim =
      (fun ?jitter ~workers ~init txns ->
        Sim.run ?jitter (fun () ->
            let db = Hek_sim.create ~mode ~workers ~tables init in
            let stats = Hek_sim.run db txns in
            (stats, fun k -> Value.to_int (Hek_sim.read_latest db k))));
  }

let silo_driver =
  {
    name = "silo";
    engine = Runner.Occ 4;
    pin =
      [
      "elapsed 0x1.9fd822157e976p-14";
      "committed 216";
      "logic_aborts 24";
      "cc_aborts 59";
      "extra read_retries 1212";
      "extra read_validation_aborts 59";
      "track occ-0 315";
      "track occ-1 276";
      "track occ-2 305";
      "track occ-3 311";
      "latency queue_wait 240 22874431";
      "latency cc_wait 216 196135";
      "latency dep_stall 240 214513";
      "latency exec 240 314219";
      "latency shard_vote 0 0";
      "latency rebalance 0 0";
    ];
    run_sim =
      (fun ?jitter ~workers ~init txns ->
        Sim.run ?jitter (fun () ->
            let db = Silo_sim.create ~workers ~tables init in
            let stats = Silo_sim.run db txns in
            (stats, fun k -> Value.to_int (Silo_sim.read_latest db k))));
  }

let twopl_driver =
  {
    name = "2pl";
    engine = Runner.Twopl 4;
    pin =
      [
      "elapsed 0x1.551ee2bb98ea4p-13";
      "committed 216";
      "logic_aborts 24";
      "cc_aborts 0";
      "extra locks_acquired 960";
      "track 2pl-0 240";
      "track 2pl-1 240";
      "track 2pl-2 240";
      "track 2pl-3 240";
      "latency queue_wait 240 38038189";
      "latency cc_wait 240 835990";
      "latency dep_stall 0 0";
      "latency exec 240 349911";
      "latency shard_vote 0 0";
      "latency rebalance 0 0";
    ];
    run_sim =
      (fun ?jitter ~workers ~init txns ->
        Sim.run ?jitter (fun () ->
            let db = Twopl_sim.create ~workers ~tables init in
            let stats = Twopl_sim.run db txns in
            (stats, fun k -> Value.to_int (Twopl_sim.read_latest db k))));
  }

let mvto_driver =
  {
    name = "mvto";
    engine = Runner.Mvto 4;
    pin =
      [
      "elapsed 0x1.3de5d87b458a6p-13";
      "committed 216";
      "logic_aborts 24";
      "cc_aborts 31";
      "extra counter_faa 271";
      "extra read_stamps 971";
      "extra reader_induced_aborts 31";
      "extra wait_aborts 0";
      "track mvto-0 141";
      "track mvto-1 138";
      "track mvto-2 150";
      "track mvto-3 144";
      "latency queue_wait 240 32686350";
      "latency cc_wait 0 0";
      "latency dep_stall 240 150285";
      "latency exec 240 961750";
      "latency shard_vote 0 0";
      "latency rebalance 0 0";
    ];
    run_sim =
      (fun ?jitter ~workers ~init txns ->
        Sim.run ?jitter (fun () ->
            let db = Mvto_sim.create ~workers ~tables init in
            let stats = Mvto_sim.run db txns in
            (stats, fun k -> Value.to_int (Mvto_sim.read_latest db k))));
  }

let hekaton =
  hekaton_driver Bohm_hekaton.Engine.Hekaton "hekaton" (Runner.Hekaton 4)
    [
      "elapsed 0x1.6581feb719761p-13";
      "committed 216";
      "logic_aborts 24";
      "cc_aborts 68";
      "extra counter_faa 551";
      "extra dep_aborts 0";
      "extra validation_aborts 27";
      "extra version_steps 89";
      "extra ww_aborts 41";
      "track hekaton-0 313";
      "track hekaton-1 282";
      "track hekaton-2 331";
      "track hekaton-3 244";
      "latency queue_wait 240 39991291";
      "latency cc_wait 216 351416";
      "latency dep_stall 240 417780";
      "latency exec 240 481740";
      "latency shard_vote 0 0";
      "latency rebalance 0 0";
    ]

let snapshot =
  hekaton_driver Bohm_hekaton.Engine.Snapshot "si" (Runner.Si 4)
    [
      "elapsed 0x1.3d28ddf84bdf3p-13";
      "committed 216";
      "logic_aborts 24";
      "cc_aborts 55";
      "extra counter_faa 511";
      "extra dep_aborts 0";
      "extra validation_aborts 0";
      "extra version_steps 89";
      "extra ww_aborts 55";
      "track si-0 273";
      "track si-1 276";
      "track si-2 273";
      "track si-3 255";
      "latency queue_wait 240 35955644";
      "latency cc_wait 216 338384";
      "latency dep_stall 240 310666";
      "latency exec 240 522673";
      "latency shard_vote 0 0";
      "latency rebalance 0 0";
    ]
let all_drivers = [ hekaton; snapshot; silo_driver; twopl_driver; mvto_driver ]
let serializable_drivers = [ hekaton; silo_driver; twopl_driver; mvto_driver ]

(* --- lost updates: hot-key increments must all survive --- *)

let test_no_lost_updates (d : driver) () =
  let txns = Array.init 300 (fun i -> incr_txn i (key 5) 1) in
  let stats, read = d.run_sim ~workers:4 ~init:init_zero txns in
  Alcotest.(check int) "all increments survive" 300 (read (key 5));
  Alcotest.(check int) "all committed" 300 stats.Stats.committed

let test_disjoint_increments (d : driver) () =
  let txns = Array.init 256 (fun i -> incr_txn i (key (i mod 64)) 1) in
  let _, read = d.run_sim ~workers:4 ~init:init_zero txns in
  for i = 0 to 63 do
    Alcotest.(check int) (Printf.sprintf "key %d" i) 4 (read (key i))
  done

let test_transfers_conserve (d : driver) () =
  let rng = Rng.create ~seed:1234 in
  let txns =
    Array.init 300 (fun i ->
        let a = Rng.int rng 64 and b = Rng.int rng 64 in
        if a = b then incr_txn i (key a) 0
        else transfer_txn i (key a) (key b) (1 + Rng.int rng 9))
  in
  let _, read = d.run_sim ~workers:4 ~init:init_zero txns in
  let total = ref 0 in
  for i = 0 to 63 do
    total := !total + read (key i)
  done;
  Alcotest.(check int) "conserved" 0 !total

(* Increment-only workloads commute, so any serial order must match the
   reference's final state exactly. *)
let test_matches_reference_commutative (d : driver) () =
  let rng = Rng.create ~seed:55 in
  let txns =
    Array.init 250 (fun i ->
        let k = key (Rng.int rng 64) in
        incr_txn i k (1 + Rng.int rng 5))
  in
  let reference = Reference.create ~tables init_zero in
  ignore (Reference.run reference txns);
  let _, read = d.run_sim ~workers:3 ~init:init_zero txns in
  for i = 0 to 63 do
    Alcotest.(check int)
      (Printf.sprintf "key %d" i)
      (Value.to_int (Reference.read reference (key i)))
      (read (key i))
  done

(* --- write-skew --- *)

(* x = y = 1; two racing transactions each check x + y >= 2 and decrement
   one of the two. Serializable outcome: x + y = 1. Write-skew: x + y = 0.
   The spin forces the transactions to overlap. *)
let write_skew_final (d : driver) seed =
  let x = key 0 and y = key 1 in
  let dec id target =
    Txn.make ~id ~read_set:[ x; y ] ~write_set:[ target ] (fun ctx ->
        let total = Value.to_int (ctx.Txn.read x) + Value.to_int (ctx.Txn.read y) in
        ctx.Txn.spin 20_000;
        if total >= 2 then begin
          ctx.Txn.write target (Value.add (ctx.Txn.read target) (-1));
          Txn.Commit
        end
        else Txn.Abort)
  in
  let _, read =
    d.run_sim ~jitter:(Rng.create ~seed) ~workers:2
      ~init:(fun _ -> vi 1)
      [| dec 0 y; dec 1 x |]
  in
  read x + read y

let test_serializable_forbids_write_skew (d : driver) () =
  for seed = 0 to 14 do
    Alcotest.(check int)
      (Printf.sprintf "%s seed %d" d.name seed)
      1
      (write_skew_final d seed)
  done

let test_si_allows_write_skew () =
  (* Overlapping snapshots with disjoint write sets: SI commits both. *)
  let anomalies = ref 0 in
  for seed = 0 to 14 do
    if write_skew_final snapshot seed = 0 then incr anomalies
  done;
  Alcotest.(check bool)
    (Printf.sprintf "SI exhibits write skew (%d/15 trials)" !anomalies)
    true (!anomalies > 0)

(* --- abort behaviour --- *)

let test_optimistic_aborts_under_contention (d : driver) () =
  (* Hot-key RMWs with overlap: optimistic engines must observe cc aborts
     yet still lose no updates. *)
  let txns =
    Array.init 200 (fun i ->
        let k = key 0 in
        Txn.make ~id:i ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
            let v = ctx.Txn.read k in
            ctx.Txn.spin 3_000;
            ctx.Txn.write k (Value.add v 1);
            Txn.Commit))
  in
  let stats, read = d.run_sim ~workers:6 ~init:init_zero txns in
  Alcotest.(check int) "no lost updates" 200 (read (key 0));
  Alcotest.(check bool)
    (Printf.sprintf "cc aborts observed (%d)" stats.Stats.cc_aborts)
    true
    (stats.Stats.cc_aborts > 0)

let test_2pl_never_cc_aborts () =
  let txns = Array.init 300 (fun i -> incr_txn i (key (i mod 3)) 1) in
  let stats, _ = twopl_driver.run_sim ~workers:6 ~init:init_zero txns in
  Alcotest.(check int) "no cc aborts" 0 stats.Stats.cc_aborts

let test_logic_abort_rolls_back (d : driver) () =
  let k = key 3 in
  let aborting =
    Txn.make ~id:1 ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
        ignore (ctx.Txn.read k);
        ctx.Txn.write k (vi 999);
        Txn.Abort)
  in
  let txns = [| incr_txn 0 k 7; aborting; incr_txn 2 k 1 |] in
  let stats, read = d.run_sim ~workers:2 ~init:init_zero txns in
  Alcotest.(check int) "aborted write invisible" 8 (read k);
  Alcotest.(check int) "logic abort counted" 1 stats.Stats.logic_aborts

(* --- engine-specific behaviours --- *)

let test_hekaton_counter_traffic () =
  (* The global counter must be hit twice per successful attempt. *)
  let txns = Array.init 100 (fun i -> incr_txn i (key (i mod 64)) 1) in
  let stats, _ = hekaton.run_sim ~workers:2 ~init:init_zero txns in
  let faa =
    match Stats.extra stats "counter_faa" with Some f -> int_of_float f | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "counter faa %d >= 2 per txn" faa)
    true
    (faa >= 2 * 100)

let test_hekaton_version_chains_grow () =
  (* No GC in the baselines: chains must retain every committed version. *)
  let txns = Array.init 50 (fun i -> incr_txn i (key 9) 1) in
  Sim.run (fun () ->
      let db =
        Hek_sim.create ~mode:Bohm_hekaton.Engine.Hekaton ~workers:1 ~tables
          init_zero
      in
      ignore (Hek_sim.run db txns);
      Alcotest.(check int) "51 versions" 51 (Hek_sim.chain_length db (key 9)))

let test_si_consistent_snapshot_reads () =
  (* Read-only transactions under SI must see a balanced total while
     transfers race. *)
  let observed = ref [] in
  let all_keys = List.init 16 (fun i -> key i) in
  let reader id =
    Txn.make ~id ~read_set:all_keys ~write_set:[] (fun ctx ->
        let total =
          List.fold_left (fun acc k -> acc + Value.to_int (ctx.Txn.read k)) 0 all_keys
        in
        observed := total :: !observed;
        Txn.Commit)
  in
  let rng = Rng.create ~seed:9 in
  let txns =
    Array.init 120 (fun i ->
        if i mod 12 = 6 then reader i
        else
          let a = Rng.int rng 16 and b = Rng.int rng 16 in
          if a = b then incr_txn i (key a) 0
          else transfer_txn i (key a) (key b) (1 + Rng.int rng 4))
  in
  ignore (snapshot.run_sim ~workers:4 ~init:init_zero txns);
  List.iter
    (fun total -> Alcotest.(check int) "balanced snapshot" 0 total)
    !observed

let test_silo_read_only_no_shared_writes () =
  (* A read-only workload must trigger no validation aborts in Silo. *)
  let txns =
    Array.init 100 (fun i ->
        let k = key (i mod 64) in
        Txn.make ~id:i ~read_set:[ k ] ~write_set:[] (fun ctx ->
            ignore (ctx.Txn.read k);
            Txn.Commit))
  in
  let stats, _ = silo_driver.run_sim ~workers:4 ~init:init_zero txns in
  Alcotest.(check int) "no aborts" 0 stats.Stats.cc_aborts;
  Alcotest.(check int) "all committed" 100 stats.Stats.committed

(* --- lock table --- *)

let test_lock_table_read_sharing () =
  Sim.run (fun () ->
      let lt = Locks_sim.create ~tables in
      Locks_sim.acquire lt (key 0) Locks_sim.Read;
      Locks_sim.acquire lt (key 0) Locks_sim.Read;
      Alcotest.(check int) "two readers" 2 (Locks_sim.holders lt (key 0));
      Alcotest.(check bool) "writer blocked" false
        (Locks_sim.try_acquire lt (key 0) Locks_sim.Write);
      Locks_sim.release lt (key 0) Locks_sim.Read;
      Locks_sim.release lt (key 0) Locks_sim.Read;
      Alcotest.(check bool) "writer proceeds" true
        (Locks_sim.try_acquire lt (key 0) Locks_sim.Write);
      Alcotest.(check int) "writer held" (-1) (Locks_sim.holders lt (key 0)))

let test_lock_table_writer_excludes_readers () =
  Sim.run (fun () ->
      let lt = Locks_sim.create ~tables in
      Locks_sim.acquire lt (key 1) Locks_sim.Write;
      Alcotest.(check bool) "reader blocked" false
        (Locks_sim.try_acquire lt (key 1) Locks_sim.Read);
      Locks_sim.release lt (key 1) Locks_sim.Write;
      Alcotest.(check bool) "reader proceeds" true
        (Locks_sim.try_acquire lt (key 1) Locks_sim.Read))

let test_lock_table_independent_keys () =
  Sim.run (fun () ->
      let lt = Locks_sim.create ~tables in
      Locks_sim.acquire lt (key 1) Locks_sim.Write;
      Alcotest.(check bool) "other key free" true
        (Locks_sim.try_acquire lt (key 2) Locks_sim.Write))

(* --- real runtime sanity --- *)

let test_real_hekaton () =
  let db =
    Hek_real.create ~mode:Bohm_hekaton.Engine.Hekaton ~workers:3 ~tables init_zero
  in
  let txns = Array.init 300 (fun i -> incr_txn i (key (i mod 8)) 1) in
  let stats = Hek_real.run db txns in
  Alcotest.(check int) "committed" 300 stats.Stats.committed;
  let total = ref 0 in
  for i = 0 to 7 do
    total := !total + Value.to_int (Hek_real.read_latest db (key i))
  done;
  Alcotest.(check int) "no lost updates" 300 !total

let test_real_silo () =
  let db = Silo_real.create ~workers:3 ~tables init_zero in
  let txns = Array.init 300 (fun i -> incr_txn i (key (i mod 8)) 1) in
  ignore (Silo_real.run db txns);
  let total = ref 0 in
  for i = 0 to 7 do
    total := !total + Value.to_int (Silo_real.read_latest db (key i))
  done;
  Alcotest.(check int) "no lost updates" 300 !total

let test_real_twopl () =
  let db = Twopl_real.create ~workers:3 ~tables init_zero in
  let txns = Array.init 300 (fun i -> incr_txn i (key (i mod 8)) 1) in
  ignore (Twopl_real.run db txns);
  let total = ref 0 in
  for i = 0 to 7 do
    total := !total + Value.to_int (Twopl_real.read_latest db (key i))
  done;
  Alcotest.(check int) "no lost updates" 300 !total

(* --- pinned runs --- *)

(* A small contended YCSB stream through [Runner]: theta 0.9 over 512
   rows, so the optimistic engines abort and retry; every 10th
   transaction aborts in its logic after writing, and every 8th is a
   read-only copy of its footprint. *)
let pin_rows = 512

let pin_spec =
  Runner.ycsb_spec ~rows:pin_rows ~record_bytes:8

let pin_txns =
  Ycsb.generate ~rows:pin_rows ~theta:0.9 ~count:240 ~seed:16
    (Ycsb.mixed_profile ~rmws:2 ~reads:2)
  |> Array.mapi (fun i (t : Txn.t) ->
         if i mod 10 = 9 then
           Txn.with_logic t (fun ctx ->
               ignore (t.Txn.logic ctx);
               Txn.Abort)
         else if i mod 8 = 3 then
           let keys = Array.to_list (Txn.footprint t) in
           Txn.make ~id:t.Txn.id ~read_set:keys ~write_set:[] (fun ctx ->
               List.iter (fun k -> ignore (ctx.Txn.read k)) keys;
               Txn.Commit)
         else t)

(* Everything a run's schedule and instrumentation determine, one fact
   per line: the unobserved run's virtual elapsed time (hex, exact),
   outcome counts and extras; the observed run's tracks with their event
   counts, and each latency phase's sample count and sum. *)
let pin_lines engine =
  let s = Runner.run_sim engine pin_spec pin_txns in
  let observed, recorder = Runner.run_sim_obs engine pin_spec pin_txns in
  [
    Printf.sprintf "elapsed %h" s.Stats.elapsed;
    Printf.sprintf "committed %d" s.Stats.committed;
    Printf.sprintf "logic_aborts %d" s.Stats.logic_aborts;
    Printf.sprintf "cc_aborts %d" s.Stats.cc_aborts;
  ]
  @ List.map (fun (k, v) -> Printf.sprintf "extra %s %.17g" k v) s.Stats.extra
  @ List.map
      (fun b -> Printf.sprintf "track %s %d" (Buf.name b) (Buf.length b))
      (Recorder.tracks recorder)
  @ List.map
      (fun (phase, h) ->
        let n = Histogram.count h in
        Printf.sprintf "latency %s %d %.0f" phase n
          (Histogram.mean h *. float_of_int n))
      observed.Stats.latency

let test_pinned_run (d : driver) () =
  Alcotest.(check (list string)) d.name d.pin (pin_lines d.engine)

(* --- properties --- *)

let prop_no_lost_updates d =
  QCheck.Test.make ~count:15
    ~name:(Printf.sprintf "%s never loses increments" d.name)
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 80 + Rng.int rng 80 in
      let txns =
        Array.init n (fun i -> incr_txn i (key (Rng.int rng 8)) 1)
      in
      let workers = 1 + Rng.int rng 5 in
      let _, read =
        d.run_sim ~jitter:(Rng.create ~seed:(seed + 7)) ~workers ~init:init_zero
          txns
      in
      let total = ref 0 in
      for i = 0 to 7 do
        total := !total + read (key i)
      done;
      !total = n)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let per_driver_cases (d : driver) =
  [
    Alcotest.test_case (d.name ^ " no lost updates") `Quick (test_no_lost_updates d);
    Alcotest.test_case (d.name ^ " disjoint increments") `Quick (test_disjoint_increments d);
    Alcotest.test_case (d.name ^ " transfers conserve") `Quick (test_transfers_conserve d);
    Alcotest.test_case (d.name ^ " matches reference (commutative)") `Quick
      (test_matches_reference_commutative d);
    Alcotest.test_case (d.name ^ " logic abort rolls back") `Quick
      (test_logic_abort_rolls_back d);
  ]

let suite =
  [
    ("engine-invariants", List.concat_map per_driver_cases all_drivers);
    ( "write-skew",
      List.map
        (fun d ->
          Alcotest.test_case (d.name ^ " forbids write skew") `Quick
            (test_serializable_forbids_write_skew d))
        serializable_drivers
      @ [ Alcotest.test_case "SI allows write skew" `Quick test_si_allows_write_skew ] );
    ( "aborts",
      [
        Alcotest.test_case "hekaton aborts under contention" `Quick
          (test_optimistic_aborts_under_contention hekaton);
        Alcotest.test_case "si aborts under contention" `Quick
          (test_optimistic_aborts_under_contention snapshot);
        Alcotest.test_case "silo aborts under contention" `Quick
          (test_optimistic_aborts_under_contention silo_driver);
        Alcotest.test_case "2pl never cc-aborts" `Quick test_2pl_never_cc_aborts;
      ] );
    ( "engine-specific",
      [
        Alcotest.test_case "hekaton counter traffic" `Quick test_hekaton_counter_traffic;
        Alcotest.test_case "hekaton chains grow (no gc)" `Quick
          test_hekaton_version_chains_grow;
        Alcotest.test_case "si consistent snapshots" `Quick test_si_consistent_snapshot_reads;
        Alcotest.test_case "silo read-only clean" `Quick test_silo_read_only_no_shared_writes;
      ] );
    ( "lock-table",
      [
        Alcotest.test_case "read sharing" `Quick test_lock_table_read_sharing;
        Alcotest.test_case "writer excludes readers" `Quick
          test_lock_table_writer_excludes_readers;
        Alcotest.test_case "independent keys" `Quick test_lock_table_independent_keys;
      ] );
    ( "real-runtime",
      [
        Alcotest.test_case "hekaton" `Quick test_real_hekaton;
        Alcotest.test_case "silo" `Quick test_real_silo;
        Alcotest.test_case "2pl" `Quick test_real_twopl;
      ] );
    ( "pinned",
      List.map
        (fun d ->
          Alcotest.test_case (d.name ^ " pinned run") `Quick (test_pinned_run d))
        all_drivers );
    ( "properties",
      qcheck (List.map prop_no_lost_updates all_drivers) );
  ]

let () = Alcotest.run "bohm_baselines" suite

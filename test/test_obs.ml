(* Tests for the Bohm_obs observability layer: buffer/span discipline,
   recorder installation, latency bookkeeping, Chrome trace export — and
   the layer's core guarantee, trace neutrality: an observed simulated
   run reproduces the unobserved run's schedule, stats and final state
   bit-for-bit, because recording is host-side and charges nothing. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng
module Histogram = Bohm_util.Histogram
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Config = Bohm_core.Config
module Buf = Bohm_obs.Buf
module Recorder = Bohm_obs.Recorder
module Latency = Bohm_obs.Latency
module Chrome = Bohm_obs.Chrome
module Metrics = Bohm_obs.Metrics
module Timeline = Bohm_obs.Timeline
module Critical_path = Bohm_obs.Critical_path
module Runner = Bohm_harness.Runner
module Ycsb = Bohm_workload.Ycsb

module Sim_engine = Bohm_core.Engine.Make (Sim)
module Real_engine = Bohm_core.Engine.Make (Real)

(* --- Buf --- *)

let test_buf_spans () =
  let b = Buf.make ~tid:3 ~name:"worker" in
  Alcotest.(check int) "tid" 3 (Buf.tid b);
  Alcotest.(check string) "name" "worker" (Buf.name b);
  Alcotest.(check int) "initially closed" 0 (Buf.depth b);
  Buf.begin_span b ~phase:"outer" ~ts:10;
  Buf.begin_span ~batch:2 b ~phase:"inner" ~ts:20;
  Alcotest.(check int) "nested" 2 (Buf.depth b);
  Buf.instant ~value:7 b ~name:"tick" ~ts:25;
  Buf.end_span b ~ts:30;
  Buf.end_span b ~ts:40;
  Alcotest.(check int) "closed" 0 (Buf.depth b);
  match Buf.events b with
  | [
   Buf.Begin { name = "outer"; batch = -1; ts = 10 };
   Buf.Begin { name = "inner"; batch = 2; ts = 20 };
   Buf.Instant { name = "tick"; batch = -1; value = 7; ts = 25 };
   Buf.End { name = "inner"; ts = 30 };
   Buf.End { name = "outer"; ts = 40 };
  ] ->
      Alcotest.(check int) "length" 5 (Buf.length b)
  | _ -> Alcotest.fail "unexpected event sequence"

let test_buf_unbalanced_end () =
  let b = Buf.make ~tid:0 ~name:"t" in
  Alcotest.check_raises "end with no open span"
    (Invalid_argument "Buf.end_span: no open span") (fun () ->
      Buf.end_span b ~ts:1)

(* --- Recorder --- *)

let test_recorder_tracks () =
  let r = Recorder.create () in
  let a = Recorder.track r ~name:"a" in
  let b = Recorder.track r ~name:"b" in
  Alcotest.(check int) "sequential tids" 0 (Buf.tid a);
  Alcotest.(check int) "sequential tids" 1 (Buf.tid b);
  Alcotest.(check (list string))
    "creation order" [ "a"; "b" ]
    (List.map Buf.name (Recorder.tracks r))

let test_recorder_install () =
  Alcotest.(check bool) "nothing installed" true (Recorder.current () = None);
  let r = Recorder.create () in
  let seen =
    Recorder.with_recorder r (fun () -> Recorder.current () = Some r)
  in
  Alcotest.(check bool) "installed inside" true seen;
  Alcotest.(check bool) "uninstalled after" true (Recorder.current () = None);
  Alcotest.check_raises "nesting rejected"
    (Invalid_argument "Recorder.with_recorder: a recorder is already installed")
    (fun () ->
      Recorder.with_recorder r (fun () ->
          Recorder.with_recorder (Recorder.create ()) (fun () -> ())));
  (* Fun.protect: uninstalled even when the body raises. *)
  (try Recorder.with_recorder r (fun () -> failwith "boom") with _ -> ());
  Alcotest.(check bool) "uninstalled after raise" true
    (Recorder.current () = None)

(* --- Latency --- *)

let test_latency_merge () =
  Alcotest.(check bool) "empty input" true (Latency.merge_all [] = []);
  let a = Latency.create () and b = Latency.create () in
  Latency.add a Latency.Exec 100;
  Latency.add b Latency.Exec 300;
  Latency.add b Latency.Queue_wait 5;
  let merged = Latency.merge_all [ a; b ] in
  Alcotest.(check (list string))
    "phases in pipeline order" Latency.phase_names (List.map fst merged);
  let h = List.assoc "exec" merged in
  Alcotest.(check int) "exec count" 2 (Histogram.count h);
  Alcotest.(check int) "exec max" 300 (Histogram.max_value h);
  Alcotest.(check int) "unrecorded phase empty" 0
    (Histogram.count (List.assoc "dep_stall" merged));
  (* Negative durations (real-runtime clock skew) clamp rather than
     poison the histogram. *)
  Latency.add a Latency.Cc_wait (-42);
  Alcotest.(check int) "negative clamped" 0
    (Histogram.max_value (Latency.histogram a Latency.Cc_wait))

(* --- Chrome export --- *)

let test_chrome_roundtrip () =
  let r = Recorder.create () in
  let t0 = Recorder.track r ~name:"alpha" in
  let t1 = Recorder.track r ~name:"beta" in
  Buf.begin_span ~batch:0 t0 ~phase:"cc" ~ts:1_000;
  Buf.begin_span t0 ~phase:"gc" ~ts:2_000;
  Buf.end_span t0 ~ts:3_000;
  Buf.end_span t0 ~ts:4_000;
  Buf.instant ~batch:1 ~value:3 t1 ~name:"steal" ~ts:2_500;
  Buf.begin_span t1 ~phase:"exec \"quoted\"\\" ~ts:5_000;
  Buf.end_span t1 ~ts:6_000;
  let doc = Chrome.to_string r in
  (match Chrome.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid doc rejected: %s" e);
  (* Spot-check the shape: one metadata line per track, escaping, the
     ns -> us conversion. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "thread_name alpha" true
    (contains doc "\"name\": \"thread_name\", \"args\": {\"name\": \"alpha\"}");
  Alcotest.(check bool) "us conversion" true (contains doc "\"ts\": 1.000");
  Alcotest.(check bool) "escaped quote" true (contains doc "\\\"quoted\\\"");
  Alcotest.(check bool) "batch arg" true (contains doc "\"batch\": 1")

let test_chrome_validate_rejects () =
  let reject doc =
    match Chrome.of_string doc with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty doc" true (reject "{\"traceEvents\": [\n]}");
  let stray_end =
    "{\"traceEvents\": [\n\
     {\"ph\": \"E\", \"ts\": 1.000, \"pid\": 0, \"tid\": 0, \"name\": \"x\"}\n\
     ]}"
  in
  Alcotest.(check bool) "E below zero" true (reject stray_end);
  let unclosed =
    "{\"traceEvents\": [\n\
     {\"ph\": \"B\", \"ts\": 1.000, \"pid\": 0, \"tid\": 0, \"name\": \"x\"}\n\
     ]}"
  in
  Alcotest.(check bool) "unclosed span" true (reject unclosed);
  let missing_key =
    "{\"traceEvents\": [\n\
     {\"ph\": \"i\", \"ts\": 1.000, \"pid\": 0, \"name\": \"x\"}\n\
     ]}"
  in
  Alcotest.(check bool) "missing tid" true (reject missing_key);
  let missing_pid =
    "{\"traceEvents\": [\n\
     {\"ph\": \"M\", \"ts\": 0, \"pid\": 0, \"tid\": 0, \"name\": \
     \"thread_name\", \"args\": {\"name\": \"w\"}},\n\
     {\"ph\": \"i\", \"ts\": 1.000, \"tid\": 0, \"name\": \"x\"}\n\
     ]}"
  in
  Alcotest.(check bool) "missing pid" true (reject missing_pid)

(* --- Metrics --- *)

let test_metrics_sheet () =
  let a = Metrics.shard () and b = Metrics.shard () in
  Metrics.incr a Metrics.steals;
  Metrics.incr a Metrics.steals;
  Metrics.add b Metrics.steals 3;
  Metrics.incr b Metrics.dep_blocks;
  Alcotest.(check int) "counters sum as ints" 5
    (Metrics.total Metrics.steals [ a; b ]);
  let sheet =
    Metrics.collect ~select:[ Metrics.steals; Metrics.wakeups ] [ a; b ]
  in
  Metrics.set sheet Metrics.cc_batch0_start_us 12.5;
  Metrics.seti sheet Metrics.slabs_opened 7;
  Metrics.seti sheet (Metrics.cc_occ_p 3) 40;
  (* The export carries the selected counters, zeros included, then the
     gauges as set; the unselected [dep_blocks] stays out. *)
  Alcotest.(check (list (pair string (float 0.0))))
    "to_extra"
    [
      ("steals", 5.);
      ("wakeups", 0.);
      ("cc_batch0_start_us", 12.5);
      ("slabs_opened", 7.);
      ("cc_occ_p3", 40.);
    ]
    (Metrics.to_extra sheet)

(* --- Timeline --- *)

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

(* A hand-built single-batch recording with every fold the timeline
   performs: stage wall windows (gc nested in cc), commit/steal/wakeup/
   retry/recycle counts, blamed stall cycles, slab occupancy, imbalance,
   vote durations. *)
let hand_built_recorder () =
  let r = Recorder.create () in
  let cc = Recorder.track r ~name:"cc-0" in
  let ex = Recorder.track r ~name:"exec-0" in
  Buf.begin_span cc ~phase:"cc" ~batch:0 ~ts:100;
  Buf.begin_span cc ~phase:"gc" ~batch:0 ~ts:140;
  Buf.end_span cc ~ts:160;
  Buf.instant cc ~name:"cc_imbalance" ~batch:0 ~value:1250 ~ts:180;
  Buf.instant cc ~name:"slab_occ" ~batch:0 ~value:7 ~ts:200;
  Buf.end_span cc ~ts:200;
  Buf.begin_span ex ~phase:"exec" ~batch:0 ~ts:210;
  Buf.instant ex ~name:"steal" ~batch:0 ~ts:250;
  Buf.instant ex ~name:"wakeup" ~batch:0 ~ts:260;
  Buf.instant ex ~name:"retry_scan" ~batch:0 ~ts:270;
  Buf.instant ex ~name:"recycle" ~batch:0 ~ts:280;
  Buf.instant ex ~name:"dep_stall:5:0:7" ~batch:0 ~value:33 ~ts:390;
  Buf.instant ex ~name:"batch_commit" ~batch:0 ~value:16 ~ts:400;
  Buf.end_span ex ~ts:400;
  Buf.begin_span ex ~phase:"shard_vote" ~batch:0 ~ts:400;
  Buf.end_span ex ~ts:440;
  r

let test_timeline_fold () =
  match Timeline.of_recorder (hand_built_recorder ()) with
  | [ rec0 ] ->
      Alcotest.(check int) "batch" 0 rec0.Timeline.tl_batch;
      Alcotest.(check int) "start" 100 rec0.Timeline.tl_start;
      Alcotest.(check int) "finish" 440 rec0.Timeline.tl_finish;
      Alcotest.(check int) "makespan" 340 (Timeline.makespan rec0);
      Alcotest.(check int) "cc window" 100 (Timeline.stage rec0 "cc");
      Alcotest.(check int) "gc window" 20 (Timeline.stage rec0 "gc");
      Alcotest.(check int) "exec window" 190 (Timeline.stage rec0 "exec");
      Alcotest.(check int) "vote window" 40 (Timeline.stage rec0 "shard_vote");
      Alcotest.(check int) "absent stage" 0 (Timeline.stage rec0 "preprocess");
      Alcotest.(check int) "committed" 16 rec0.Timeline.tl_committed;
      Alcotest.(check int) "steals" 1 rec0.Timeline.tl_steals;
      Alcotest.(check int) "wakeups" 1 rec0.Timeline.tl_wakeups;
      Alcotest.(check int) "retry_scans" 1 rec0.Timeline.tl_retry_scans;
      Alcotest.(check int) "recycled" 1 rec0.Timeline.tl_recycled;
      Alcotest.(check int) "dep_stall" 33 rec0.Timeline.tl_dep_stall;
      Alcotest.(check int) "slab_occ" 7 rec0.Timeline.tl_slab_occ;
      Alcotest.(check (float 0.0)) "imbalance" 1.25
        rec0.Timeline.tl_cc_imbalance;
      Alcotest.(check bool) "votes" true
        (rec0.Timeline.tl_votes = [ ("exec-0", 40) ]);
      (* The JSONL schema: fixed d_<stage> keys always present, the batch
         header, the votes object. *)
      let line = Timeline.jsonl_line rec0 in
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("jsonl has " ^ sub) true (contains line sub))
        [
          "\"batch\": 0"; "\"makespan\": 340"; "\"d_sequence\": 0";
          "\"d_preprocess\": 0"; "\"d_rebalance\": 0"; "\"d_cc\": 100";
          "\"d_gc\": 20"; "\"d_exec\": 190"; "\"d_vote\": 40";
          "\"committed\": 16"; "\"cc_imbalance\": 1.250";
          "\"votes\": {\"exec-0\": 40}";
        ];
      (* Chrome counter samples: one group at the batch finish. *)
      Alcotest.(check bool) "counters" true
        (Timeline.counters [ rec0 ]
        = [
            (440, "committed", 16.);
            (440, "stalls", 3.);
            (440, "slab_occ", 7.);
            (440, "cc_imbalance", 1.25);
          ])
  | records ->
      Alcotest.failf "expected 1 record, got %d" (List.length records)

(* An unsharded observed BOHM run's timeline keeps its schema: every
   fixed JSONL key on every line, strictly increasing batch ids, and the
   non-gc stage windows, disjoint within one pipeline, summing to at most
   the makespan (gc is nested inside cc). Batches of 100 give 30 records,
   some with GC work. *)
let test_timeline_schema () =
  let rows = 100_000 in
  let spec = Runner.ycsb_spec ~rows ~record_bytes:1000 in
  let txns =
    Ycsb.generate ~rows ~theta:0.4 ~count:3_000 ~seed:1 (Ycsb.rmw_profile 10)
  in
  let bohm =
    Config.make ~cc_threads:2 ~exec_threads:4 ~batch_size:100
      ~preprocess:true ()
  in
  let _, recorder = Runner.run_sim_obs (Runner.Bohm bohm) spec txns in
  let records = Timeline.of_recorder recorder in
  List.iter
    (fun (r : Timeline.record) ->
      let line = Timeline.jsonl_line r in
      List.iter
        (fun key ->
          if not (contains line ("\"" ^ key ^ "\": ")) then
            Alcotest.failf "batch %d: no %s in %s" r.tl_batch key line)
        [
          "batch"; "start"; "finish"; "makespan"; "d_sequence";
          "d_preprocess"; "d_rebalance"; "d_cc"; "d_gc"; "d_exec"; "d_vote";
          "committed"; "steals"; "wakeups"; "retry_scans"; "recycled";
          "dep_stall"; "slab_occ"; "cc_imbalance"; "votes";
        ];
      if
        not
          (contains line
             (Printf.sprintf "\"finish\": %d, \"makespan\": %d," r.tl_finish
                (r.tl_finish - r.tl_start)))
      then Alcotest.failf "batch %d: makespan is not finish - start" r.tl_batch;
      let sum =
        List.fold_left
          (fun acc st -> acc + Timeline.stage r st)
          0
          [ "sequence"; "preprocess"; "rebalance"; "cc"; "exec"; "shard_vote" ]
      in
      if sum > Timeline.makespan r then
        Alcotest.failf "batch %d: stage windows %d exceed makespan %d"
          r.tl_batch sum (Timeline.makespan r))
    records;
  let ids = List.map (fun (r : Timeline.record) -> r.tl_batch) records in
  Alcotest.(check bool) "batch ids strictly increasing" true
    (List.sort_uniq compare ids = ids);
  Alcotest.(check bool) "at least 20 batches" true (List.length records >= 20);
  Alcotest.(check bool) "some batch with gc" true
    (List.exists (fun r -> Timeline.stage r "gc" > 0) records)

(* --- Critical_path --- *)

(* Two pipelined batches plus a tie batch, analyzed by hand:

   batch 0:  cc on cc-0 [0,100] and cc-1 [10,120] (window 120, last
             finisher cc-1), gc nested on cc-0 [40,60] (20), exec on
             exec-0 [120,200] (80)          -> binding cc
   batch 1:  cc on cc-0 [130,190] (60), exec on exec-0 [200,270] and
             exec-1 [205,268] (70, last finisher exec-0)
                                             -> binding exec
   batch 2:  cc and gc both [300,350] on cc-0: the exact tie goes to
             the upstream stage              -> binding cc

   blame: writer 7 / key 0:42 blamed 25 + 5 cycles over two stalls;
   writer 3 / key 1:9 blamed 50 in one — ledger descends by cycles. *)
let critical_path_recorder () =
  let r = Recorder.create () in
  let cc0 = Recorder.track r ~name:"cc-0" in
  let cc1 = Recorder.track r ~name:"cc-1" in
  let ex0 = Recorder.track r ~name:"exec-0" in
  let ex1 = Recorder.track r ~name:"exec-1" in
  Buf.begin_span cc0 ~phase:"cc" ~batch:0 ~ts:0;
  Buf.begin_span cc0 ~phase:"gc" ~batch:0 ~ts:40;
  Buf.end_span cc0 ~ts:60;
  Buf.end_span cc0 ~ts:100;
  Buf.begin_span cc1 ~phase:"cc" ~batch:0 ~ts:10;
  Buf.end_span cc1 ~ts:120;
  Buf.begin_span ex0 ~phase:"exec" ~batch:0 ~ts:120;
  Buf.instant ex0 ~name:"dep_stall:7:0:42" ~batch:0 ~value:25 ~ts:150;
  Buf.end_span ex0 ~ts:200;
  Buf.begin_span cc0 ~phase:"cc" ~batch:1 ~ts:130;
  Buf.end_span cc0 ~ts:190;
  Buf.begin_span ex0 ~phase:"exec" ~batch:1 ~ts:200;
  Buf.instant ex0 ~name:"dep_stall:7:0:42" ~batch:1 ~value:5 ~ts:260;
  Buf.instant ex0 ~name:"dep_stall:3:1:9" ~batch:1 ~value:50 ~ts:265;
  Buf.end_span ex0 ~ts:270;
  Buf.begin_span ex1 ~phase:"exec" ~batch:1 ~ts:205;
  Buf.end_span ex1 ~ts:268;
  Buf.begin_span cc0 ~phase:"cc" ~batch:2 ~ts:300;
  Buf.begin_span cc0 ~phase:"gc" ~batch:2 ~ts:300;
  Buf.end_span cc0 ~ts:350;
  Buf.end_span cc0 ~ts:350;
  r

let expected_critical_path =
  let link l_stage l_track l_start l_finish =
    { Critical_path.l_stage; l_track; l_start; l_finish }
  in
  let cc0_b0 = link "cc" "cc-1" 0 120 in
  let exec_b1 = link "exec" "exec-0" 200 270 in
  let cc_b2 = link "cc" "cc-0" 300 350 in
  {
    Critical_path.cp_batches =
      [
        {
          Critical_path.bp_batch = 0;
          bp_chain =
            [ cc0_b0; link "gc" "cc-0" 40 60; link "exec" "exec-0" 120 200 ];
          bp_binding = cc0_b0;
        };
        {
          Critical_path.bp_batch = 1;
          bp_chain = [ link "cc" "cc-0" 130 190; exec_b1 ];
          bp_binding = exec_b1;
        };
        {
          Critical_path.bp_batch = 2;
          bp_chain = [ cc_b2; link "gc" "cc-0" 300 350 ];
          bp_binding = cc_b2;
        };
      ];
    cp_binding = [ ("cc", 2); ("exec", 1) ];
    cp_blame =
      [
        { Critical_path.bl_writer = 3; bl_key = "1:9"; bl_cycles = 50; bl_count = 1 };
        { Critical_path.bl_writer = 7; bl_key = "0:42"; bl_cycles = 30; bl_count = 2 };
      ];
  }

let test_critical_path_exact () =
  let cp = Critical_path.analyze (critical_path_recorder ()) in
  Alcotest.(check bool) "exact analysis" true (cp = expected_critical_path);
  Alcotest.(check (float 1e-9)) "cc binding share" (2. /. 3.)
    (Critical_path.binding_share cp "cc");
  Alcotest.(check (float 0.0)) "absent stage share" 0.
    (Critical_path.binding_share cp "shard_vote")

(* The analyzer must reach the same verdict through the save/reload
   path: export the trace, re-import it with [Chrome.of_string], and the
   analysis is structurally identical (this is what [bohm_cli report
   --trace] does). *)
let test_critical_path_reimport () =
  let r = critical_path_recorder () in
  let doc = Chrome.to_string r in
  match Chrome.of_string doc with
  | Error e -> Alcotest.failf "re-import failed: %s" e
  | Ok r' ->
      Alcotest.(check (list string))
        "tracks survive" ["cc-0"; "cc-1"; "exec-0"; "exec-1"]
        (List.map Buf.name (Recorder.tracks r'));
      Alcotest.(check bool) "same analysis" true
        (Critical_path.analyze r' = expected_critical_path)

(* --- trace neutrality on the simulator --- *)

let table = Table.make ~tid:0 ~name:"t" ~rows:64 ~record_bytes:8
let tables = [| table |]
let key row = Key.make ~table:0 ~row
let init_zero _ = Value.zero

(* 1-4 read-modify-writes on rows drawn by [row]. *)
let rmw_txn row rng id =
  let n_keys = 1 + Rng.int rng 4 in
  let keys = List.init n_keys (fun _ -> key (row rng)) in
  Txn.make ~id ~read_set:keys ~write_set:keys (fun ctx ->
      List.iter
        (fun k -> ctx.Txn.write k (Value.add (ctx.Txn.read k) (1 + (id mod 7))))
        keys;
      Txn.Commit)

let random_rmw_txn = rmw_txn (fun rng -> Rng.int rng 64)

(* Everything the schedule determines: commits, stats extras, virtual
   makespan, final values, chain lengths, scheduler resume count. *)
let bohm_fingerprint ~obs ~seed txns =
  let config =
    Config.make ~cc_threads:3 ~exec_threads:3 ~batch_size:16 ~preprocess:true
      ~obs ()
  in
  let body () =
    Sim.run ~jitter:(Rng.create ~seed) (fun () ->
        let db = Sim_engine.create config ~tables init_zero in
        let stats = Sim_engine.run db txns in
        let values =
          Array.init 64 (fun i -> Value.to_int (Sim_engine.read_latest db (key i)))
        in
        let chains =
          Array.init 64 (fun i -> Sim_engine.chain_length db (key i))
        in
        (stats, values, chains))
  in
  let stats, values, chains =
    if obs then Recorder.with_recorder (Recorder.create ()) body else body ()
  in
  let sched =
    ( stats.Stats.committed,
      stats.Stats.elapsed,
      stats.Stats.extra,
      values,
      chains,
      Sim.steps () )
  in
  (sched, stats.Stats.latency)

let prop_bohm_trace_neutral =
  QCheck.Test.make ~count:10
    ~name:"observed BOHM sim run is schedule-identical to unobserved"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 150 (fun i -> random_rmw_txn rng i) in
      let plain, lat_off = bohm_fingerprint ~obs:false ~seed:(seed + 3) txns in
      let observed, lat_on = bohm_fingerprint ~obs:true ~seed:(seed + 3) txns in
      plain = observed && lat_off = [] && lat_on <> [])

(* The single-layer engines at four workers, each with its track prefix
   and the latency phases that carry one sample per committed
   transaction: 2PL never retries, so it has no dependency stall; MVTO
   has no commit section, so no cc_wait. *)
let baselines =
  [
    (Runner.Twopl 4, "2pl", [ "queue_wait"; "cc_wait"; "exec" ]);
    (Runner.Occ 4, "occ", [ "queue_wait"; "cc_wait"; "dep_stall"; "exec" ]);
    (Runner.Si 4, "si", [ "queue_wait"; "cc_wait"; "dep_stall"; "exec" ]);
    (Runner.Hekaton 4, "hekaton", [ "queue_wait"; "cc_wait"; "dep_stall"; "exec" ]);
    (Runner.Mvto 4, "mvto", [ "queue_wait"; "dep_stall"; "exec" ]);
  ]

(* Four in five keys drawn from 4 hot rows, so the optimistic engines
   abort and retry. *)
let skewed_rmw_txn =
  rmw_txn (fun rng -> if Rng.int rng 5 < 4 then Rng.int rng 4 else Rng.int rng 64)

(* The export validates and every span opened, including those a
   conflict unwound, is closed. *)
let check_trace recorder =
  (match Chrome.of_string (Chrome.to_string recorder) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invalid trace: %s" e);
  List.iter
    (fun b -> Alcotest.(check int) (Buf.name b ^ " spans closed") 0 (Buf.depth b))
    (Recorder.tracks recorder)

(* The same neutrality for the single-layer engines (no Config gate
   there: an installed recorder is the only switch). *)
let prop_baseline_trace_neutral engine =
  QCheck.Test.make ~count:6
    ~name:
      (Printf.sprintf "observed %s sim run is schedule-identical to unobserved"
         (Runner.name engine))
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let txns = Array.init 120 (fun i -> skewed_rmw_txn rng i) in
      let spec = { Runner.tables; init = init_zero } in
      let fingerprint stats =
        ( stats.Stats.committed,
          stats.Stats.cc_aborts,
          stats.Stats.elapsed,
          stats.Stats.extra )
      in
      let plain = Runner.run_sim engine spec txns in
      let observed, recorder = Runner.run_sim_obs engine spec txns in
      check_trace recorder;
      fingerprint plain = fingerprint observed
      && plain.Stats.latency = []
      && observed.Stats.latency <> []
      && Recorder.tracks recorder <> [])

(* Each single-layer engine's observed run exports a valid, balanced
   trace with one track per worker, conflicts included, and records the
   latency phases its protocol has. *)
let test_baseline_trace_exports (engine, prefix, phases) () =
  let rng = Rng.create ~seed:4242 in
  let txns = Array.init 200 (fun i -> skewed_rmw_txn rng i) in
  let spec = { Runner.tables; init = init_zero } in
  let stats, recorder = Runner.run_sim_obs engine spec txns in
  Alcotest.(check int) "all committed" 200 stats.Stats.committed;
  if engine <> Runner.Twopl 4 then
    Alcotest.(check bool)
      (Printf.sprintf "conflicts unwound (%d)" stats.Stats.cc_aborts)
      true (stats.Stats.cc_aborts > 0);
  check_trace recorder;
  Alcotest.(check (list string))
    "tracks"
    (List.init 4 (Printf.sprintf "%s-%d" prefix))
    (List.map Buf.name (Recorder.tracks recorder));
  List.iter
    (fun phase ->
      let expected = if List.mem phase phases then 200 else 0 in
      match Stats.latency stats phase with
      | Some h ->
          Alcotest.(check int) (phase ^ " count") expected (Histogram.count h)
      | None -> Alcotest.failf "phase %s missing" phase)
    Latency.phase_names

(* An observed run through the harness exports a valid Chrome trace with
   one track per pipeline thread. *)
let test_sim_trace_exports () =
  let rng = Rng.create ~seed:4242 in
  let txns = Array.init 200 (fun i -> random_rmw_txn rng i) in
  let spec = { Runner.tables; init = init_zero } in
  let bohm =
    Config.make ~cc_threads:2 ~exec_threads:4 ~batch_size:32 ~preprocess:true ()
  in
  let stats, recorder = Runner.run_sim_obs (Runner.Bohm bohm) spec txns in
  Alcotest.(check int) "all committed" 200 stats.Stats.committed;
  let doc = Chrome.to_string recorder in
  (match Chrome.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invalid trace: %s" e);
  (* The same export cut off just before its last E event leaves a span
     open on that track, and the parser rejects it. *)
  let rec last_end i =
    if String.sub doc i 9 = "\"ph\": \"E\"" then i else last_end (i - 1)
  in
  let cut = String.rindex_from doc (last_end (String.length doc - 9)) '\n' in
  Alcotest.(check bool) "truncated export rejected" true
    (Result.is_error (Chrome.of_string (String.sub doc 0 cut)));
  let names = List.map Buf.name (Recorder.tracks recorder) in
  (* 2 CC + 4 exec tracks, plus the driver track and one preprocessing
     track per pipeline thread. *)
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "missing track %s (have: %s)" expected
          (String.concat ", " names))
    [ "driver"; "cc-0"; "cc-1"; "exec-0"; "exec-3"; "pre-0" ];
  List.iter
    (fun phase ->
      (* Per-transaction phases carry one sample per commit; the per-batch
         shard_vote phase stays empty on this single-shard run, and
         rebalance samples only on an actual map publication (never on a
         run this small). *)
      let expected =
        if phase = "shard_vote" || phase = "rebalance" then 0 else 200
      in
      match Stats.latency stats phase with
      | Some h ->
          Alcotest.(check int) (phase ^ " count") expected (Histogram.count h)
      | None -> Alcotest.failf "phase %s missing" phase)
    Latency.phase_names

(* --- the observed BOHM event stream, pinned ---

   Two Sim configurations whose whole Chrome export is pinned by digest,
   together with per-track event counts and the stats fingerprint
   (virtual time, commits, extras, latency phases). Any change to what the
   engine emits, in which order, on which track, at which virtual time,
   fails here — the guard for refactors of the engine's telemetry that
   must leave both the schedule and the event stream untouched. *)

let event_stream config txns =
  let recorder = Recorder.create () in
  let stats =
    Recorder.with_recorder recorder (fun () ->
        Sim.run (fun () ->
            let db =
              Sim_engine.create config
                ~tables:(Ycsb.tables ~rows:4096 ~record_bytes:8)
                Ycsb.initial_value
            in
            Sim_engine.run db txns))
  in
  let extras =
    List.map
      (fun (k, v) -> Printf.sprintf "%s=%h" k v)
      (List.sort compare stats.Stats.extra)
  in
  let latency =
    List.map
      (fun (phase, h) ->
        if Histogram.count h = 0 then phase ^ ":0"
        else
          Printf.sprintf "%s:%d/%d/%d" phase (Histogram.count h)
            (Histogram.min_value h) (Histogram.max_value h))
      stats.Stats.latency
  in
  let fingerprint =
    Printf.sprintf "elapsed=%h" stats.Stats.elapsed
    :: Printf.sprintf "committed=%d" stats.Stats.committed
    :: (extras @ latency)
  in
  let tracks =
    List.map (fun b -> (Buf.name b, Buf.length b)) (Recorder.tracks recorder)
  in
  ( stats,
    Digest.to_hex (Digest.string (Chrome.to_string recorder)),
    tracks,
    fingerprint )

let check_event_stream label config txns ~digest ~tracks ~fingerprint =
  let stats, digest', tracks', fingerprint' = event_stream config txns in
  Alcotest.(check (list string))
    (label ^ " stats fingerprint") fingerprint fingerprint';
  Alcotest.(check (list (pair string int)))
    (label ^ " track events") tracks tracks';
  Alcotest.(check string) (label ^ " chrome digest") digest digest';
  stats

(* Two shards of cc=2/exec=8 (the wakeup path), preprocessing and
   rebalancing on, on a migrating flash crowd: preprocess, rebalance, cc,
   gc, exec and shard_vote spans, cc_imbalance, slab_occ, steal, wakeup,
   dep_stall and batch_commit instants. *)
let test_event_stream_sharded () =
  let config =
    Config.make ~shards:2 ~cc_threads:2 ~exec_threads:8 ~batch_size:100
      ~preprocess:true ~cc_rebalance:true ~obs:true ()
  in
  let txns =
    Ycsb.generate_flash_crowd ~rows:4096 ~count:1200 ~seed:41 ~phases:3
      ~hot_keys:64 ~hot_frac:0.9 (Ycsb.mixed_profile ~rmws:2 ~reads:8)
  in
  let stats =
    check_event_stream "sharded" config txns
      ~digest:"fffb3402338b14b3e354f65cf895e954"
      ~tracks:[
        ("driver", 2);
        ("s0/cc-0", 60);
        ("s0/cc-1", 72);
        ("s1/cc-0", 66);
        ("s1/cc-1", 64);
        ("s0/exec-0", 78);
        ("s0/exec-1", 49);
        ("s0/exec-2", 49);
        ("s0/exec-3", 47);
        ("s0/exec-4", 56);
        ("s0/exec-5", 52);
        ("s0/exec-6", 47);
        ("s0/exec-7", 50);
        ("s1/exec-0", 79);
        ("s1/exec-1", 57);
        ("s1/exec-2", 50);
        ("s1/exec-3", 62);
        ("s1/exec-4", 49);
        ("s1/exec-5", 65);
        ("s1/exec-6", 53);
        ("s1/exec-7", 55);
        ("s0/pre-0", 40);
        ("s0/pre-1", 24);
        ("s0/pre-2", 24);
        ("s0/pre-3", 24);
        ("s0/pre-4", 24);
        ("s0/pre-5", 24);
        ("s0/pre-6", 24);
        ("s0/pre-7", 24);
        ("s0/pre-8", 24);
        ("s0/pre-9", 24);
        ("s1/pre-0", 40);
        ("s1/pre-1", 24);
        ("s1/pre-2", 24);
        ("s1/pre-3", 24);
        ("s1/pre-4", 24);
        ("s1/pre-5", 24);
        ("s1/pre-6", 24);
        ("s1/pre-7", 24);
        ("s1/pre-8", 24);
        ("s1/pre-9", 24);
      ]
      ~fingerprint:[
        "elapsed=0x1.7d7554488a3b1p-13";
        "committed=1200";
        "cc_batch0_start_us=0x1.519999999999ap+4";
        "cc_imbalance_max=0x1.acdc9ac09e0b8p+0";
        "cc_imbalance_mean=0x1.4590534b812cfp+0";
        "cc_occ_p0=0x1.e25p+12";
        "cc_occ_p1=0x1.a1bp+12";
        "cross_shard_txns=0x1.2cp+10";
        "dep_blocks=0x1.6p+5";
        "exec_retry_scans=0x1.b8p+6";
        "gc_collected=0x1.ep+3";
        "pre_complete_us=0x1.19fc6a7ef9db3p+6";
        "rebalances=0x1p+2";
        "segs_moved=0x1.ep+4";
        "shard_votes=0x1.8p+4";
        "slabs_opened=0x1.8p+5";
        "slabs_retired=0x0p+0";
        "steals=0x1.f4p+6";
        "wakeups=0x1p+1";
        "queue_wait:1200/466/43682";
        "cc_wait:1200/70660/334127";
        "dep_stall:1200/0/9347";
        "exec:1200/566/4290";
        "shard_vote:24/500/19715";
        "rebalance:4/400/400";
      ]
  in
  (* Rebalance spans and cc_imbalance instants only appear once a map
     publication happens. *)
  Alcotest.(check bool) "rebalances > 0" true
    (List.assoc "rebalances" stats.Stats.extra > 0.)

(* One shard of cc=1/exec=2 (the retry path, retry_scan instants) with GC
   on, on a contended stream. *)
let test_event_stream_retry () =
  let config =
    Config.make ~cc_threads:1 ~exec_threads:2 ~batch_size:50 ~gc:true ~obs:true
      ()
  in
  let txns =
    Ycsb.generate ~rows:4096 ~theta:0.9 ~count:1000 ~seed:43
      (Ycsb.rmw_profile 4)
  in
  ignore
    (check_event_stream "retry" config txns
       ~digest:"96b57d7d0a3f2e16705d18a42136487d"
       ~tracks:[
         ("driver", 2);
         ("cc-0", 268);
         ("exec-0", 137);
         ("exec-1", 192);
       ]
       ~fingerprint:[
         "elapsed=0x1.0351908dceacap-11";
         "committed=1000";
         "cc_batch0_start_us=0x1p+0";
         "dep_blocks=0x1.5p+6";
         "exec_retry_scans=0x1.c8p+6";
         "gc_collected=0x1.29p+8";
         "pre_complete_us=0x0p+0";
         "slabs_opened=0x1.4p+5";
         "slabs_retired=0x0p+0";
         "steals=0x1p+4";
         "wakeups=0x0p+0";
         "queue_wait:1000/4534/236638";
         "cc_wait:1000/51342/746826";
         "dep_stall:1000/0/7820";
         "exec:1000/398/2112";
         "shard_vote:0";
         "rebalance:0";
       ])

(* --- real runtime smoke --- *)

(* Spans still balance and the export still validates when timestamps come
   from the wall clock and threads are real domains. *)
let test_real_trace_smoke () =
  let rng = Rng.create ~seed:77 in
  let txns = Array.init 150 (fun i -> random_rmw_txn rng i) in
  let recorder = Recorder.create () in
  let config =
    Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:32 ~obs:true ()
  in
  let stats =
    Recorder.with_recorder recorder (fun () ->
        let db = Real_engine.create config ~tables init_zero in
        Real_engine.run db txns)
  in
  Alcotest.(check int) "all committed" 150 stats.Stats.committed;
  (match Chrome.of_string (Chrome.to_string recorder) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invalid real-runtime trace: %s" e);
  List.iter
    (fun b ->
      Alcotest.(check int) (Buf.name b ^ " spans closed") 0 (Buf.depth b))
    (Recorder.tracks recorder);
  match Stats.latency stats "exec" with
  | Some h -> Alcotest.(check int) "exec samples" 150 (Histogram.count h)
  | None -> Alcotest.fail "latency missing on real runtime"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "buf",
      [
        Alcotest.test_case "span nesting and events" `Quick test_buf_spans;
        Alcotest.test_case "unbalanced end rejected" `Quick
          test_buf_unbalanced_end;
      ] );
    ( "recorder",
      [
        Alcotest.test_case "tracks" `Quick test_recorder_tracks;
        Alcotest.test_case "install/uninstall" `Quick test_recorder_install;
      ] );
    ("latency", [ Alcotest.test_case "merge" `Quick test_latency_merge ]);
    ( "metrics",
      [
        Alcotest.test_case "shards and sheet" `Quick test_metrics_sheet;
      ] );
    ( "timeline",
      [
        Alcotest.test_case "per-batch fold" `Quick test_timeline_fold;
        Alcotest.test_case "schema of a BOHM run" `Quick test_timeline_schema;
      ] );
    ( "critical-path",
      [
        Alcotest.test_case "hand-computed schedule" `Quick
          test_critical_path_exact;
        Alcotest.test_case "trace re-import" `Quick
          test_critical_path_reimport;
      ] );
    ( "chrome",
      [
        Alcotest.test_case "roundtrip validates" `Quick test_chrome_roundtrip;
        Alcotest.test_case "corrupt docs rejected" `Quick
          test_chrome_validate_rejects;
      ] );
    ( "neutrality",
      [ Alcotest.test_case "sim trace exports" `Quick test_sim_trace_exports ]
      @ List.map
          (fun ((engine, _, _) as b) ->
            Alcotest.test_case
              ("sim trace exports " ^ Runner.name engine)
              `Quick (test_baseline_trace_exports b))
          baselines
      @ qcheck
          (prop_bohm_trace_neutral
          :: List.map (fun (e, _, _) -> prop_baseline_trace_neutral e) baselines)
    );
    ( "event-stream",
      [
        Alcotest.test_case "sharded flash crowd pinned" `Quick
          test_event_stream_sharded;
        Alcotest.test_case "retry path with gc pinned" `Quick
          test_event_stream_retry;
      ] );
    ("real", [ Alcotest.test_case "trace smoke" `Quick test_real_trace_smoke ]);
  ]

let () = Alcotest.run "bohm_obs" suite

(* Tests for Bohm_harness: the serial reference executor, report
   formatting, the uniform engine runner, and the experiment drivers in
   quick mode (structure plus robust qualitative shapes). *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Ycsb = Bohm_workload.Ycsb
module Reference = Bohm_harness.Reference
module Report = Bohm_harness.Report
module Runner = Bohm_harness.Runner
module Config = Bohm_core.Config
module Experiments = Bohm_harness.Experiments

let table = Table.make ~tid:0 ~name:"t" ~rows:16 ~record_bytes:8
let tables = [| table |]
let key row = Key.make ~table:0 ~row

(* --- Reference --- *)

let test_reference_serial_semantics () =
  let r = Reference.create ~tables (fun _ -> Value.of_int 10) in
  let t1 =
    Txn.make ~id:0 ~read_set:[ key 0 ] ~write_set:[ key 0 ] (fun ctx ->
        ctx.Txn.write (key 0) (Value.add (ctx.Txn.read (key 0)) 5);
        Txn.Commit)
  in
  let t2 =
    Txn.make ~id:1 ~read_set:[ key 0 ] ~write_set:[ key 1 ] (fun ctx ->
        ctx.Txn.write (key 1) (ctx.Txn.read (key 0));
        Txn.Commit)
  in
  let outcomes = Reference.run r [| t1; t2 |] in
  Alcotest.(check bool) "both commit" true (outcomes = [| Txn.Commit; Txn.Commit |]);
  Alcotest.(check int) "t1 applied" 15 (Value.to_int (Reference.read r (key 0)));
  Alcotest.(check int) "t2 saw t1" 15 (Value.to_int (Reference.read r (key 1)))

let test_reference_abort_rolls_back () =
  let r = Reference.create ~tables (fun _ -> Value.zero) in
  let t =
    Txn.make ~id:0 ~read_set:[] ~write_set:[ key 2 ] (fun ctx ->
        ctx.Txn.write (key 2) (Value.of_int 99);
        Txn.Abort)
  in
  ignore (Reference.run r [| t |]);
  Alcotest.(check int) "rolled back" 0 (Value.to_int (Reference.read r (key 2)))

let test_reference_read_own_write () =
  let r = Reference.create ~tables (fun _ -> Value.zero) in
  let seen = ref (-1) in
  let t =
    Txn.make ~id:0 ~read_set:[ key 3 ] ~write_set:[ key 3 ] (fun ctx ->
        ctx.Txn.write (key 3) (Value.of_int 7);
        seen := Value.to_int (ctx.Txn.read (key 3));
        Txn.Commit)
  in
  ignore (Reference.run r [| t |]);
  Alcotest.(check int) "own write visible" 7 !seen

let test_reference_fold_and_missing () =
  let r = Reference.create ~tables (fun k -> Value.of_int (Key.row k)) in
  let sum = Reference.fold r ~init:0 (fun _ v acc -> acc + Value.to_int v) in
  Alcotest.(check int) "fold sums rows" 120 sum;
  Alcotest.check_raises "missing key" Not_found (fun () ->
      ignore (Reference.read r (Key.make ~table:9 ~row:0)))

(* --- Report --- *)

let test_float_to_string () =
  Alcotest.(check string) "grouping" "1,234,568" (Report.float_to_string 1_234_567.9);
  Alcotest.(check string) "small" "42" (Report.float_to_string 42.4);
  Alcotest.(check string) "zero" "0" (Report.float_to_string 0.);
  Alcotest.(check string) "thousand" "1,000" (Report.float_to_string 1000.);
  Alcotest.(check string) "negative" "-12,345" (Report.float_to_string (-12345.))

(* The exact bytes --json writes: escaped title, integer and %.6g
   numbers, null cells, per-column ceilings (null for an all-null
   column), and an empty series. *)
let json_series =
  [
    {
      Report.title = "Fig \"A\"\\B\nC\tD";
      x_label = "threads";
      columns = [ "2PL"; "Bohm"; "none" ];
      rows =
        [
          ("1", [ Some 1234.; None; None ]);
          ("2", [ Some 0.5; Some (-3.); None ]);
          ("4", [ Some 1e20; Some 12.345678; None ]);
        ];
      notes = [ "not exported" ];
    };
    { title = "empty"; x_label = "x"; columns = [ "c" ]; rows = []; notes = [] };
  ]

let json_expected =
  {|{
  "series": [
    {
      "title": "Fig \"A\"\\B\nC\u0009D",
      "x_label": "threads",
      "columns": ["2PL", "Bohm", "none"],
      "rows": [
        {"x": "1", "values": [1234, null, null]},
        {"x": "2", "values": [0.5, -3, null]},
        {"x": "4", "values": [1e+20, 12.3457, null]}
      ],
      "ceilings": {"2PL": 1e+20, "Bohm": 12.3457, "none": null}
    },
    {
      "title": "empty",
      "x_label": "x",
      "columns": ["c"],
      "rows": [
      ],
      "ceilings": {"c": null}
    }
  ]
}
|}

let test_json_bytes () =
  let path = Filename.temp_file "report" ".json" in
  let written series =
    Report.json_write ~path series;
    In_channel.with_open_bin path In_channel.input_all
  in
  Alcotest.(check string) "series" json_expected (written json_series);
  Alcotest.(check string) "no series" "{\n  \"series\": [\n  ]\n}\n" (written []);
  Sys.remove path

(* --- Runner --- *)

let small_spec = Runner.ycsb_spec ~rows:256 ~record_bytes:8

let small_txns = Ycsb.generate ~rows:256 ~theta:0.0 ~count:300 ~seed:11 (Ycsb.rmw_profile 4)

let test_runner_all_engines_complete () =
  List.iter
    (fun engine ->
      let stats = Runner.run_sim engine small_spec small_txns in
      Alcotest.(check int)
        (Runner.name engine ^ " committed")
        300 stats.Stats.committed;
      Alcotest.(check bool)
        (Runner.name engine ^ " positive throughput")
        true
        (Stats.throughput stats > 0.))
    (Runner.all 4)

let test_runner_deterministic () =
  let thr engine = Stats.throughput (Runner.run_sim engine small_spec small_txns) in
  List.iter
    (fun e ->
      Alcotest.(check (float 0.))
        (Runner.name e ^ " deterministic")
        (thr e) (thr e))
    (Runner.all 4)

let test_runner_bohm_split_valid () =
  (* Even extreme fractions keep at least one thread on each side and use
     every thread; the two-thread split runs to completion. *)
  List.iter
    (fun frac ->
      List.iter
        (fun threads ->
          let cc, exec = Runner.split ~cc_fraction:frac threads in
          Alcotest.(check bool)
            (Printf.sprintf "split %g of %d" frac threads)
            true
            (cc >= 1 && exec >= 1 && cc + exec = threads))
        [ 2; 3; 8; 40 ];
      let cc, exec = Runner.split ~cc_fraction:frac 2 in
      let bohm = Config.make ~cc_threads:cc ~exec_threads:exec () in
      let stats = Runner.run_sim (Runner.Bohm bohm) small_spec small_txns in
      Alcotest.(check int) "completes" 300 stats.Stats.committed)
    [ 0.0; 0.01; 0.5; 0.99; 1.0 ];
  (* The default share rounds a quarter of the threads. *)
  Alcotest.(check (list (pair int int)))
    "default splits"
    [ (1, 1); (1, 1); (2, 4); (4, 12); (10, 30) ]
    (List.map (fun t -> Runner.split t) [ 1; 2; 6; 16; 40 ])

let test_runner_rejects_bad_threads () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Runner.run_sim: threads must be positive") (fun () ->
      ignore (Runner.run_sim (Runner.Twopl 0) small_spec small_txns));
  Alcotest.check_raises "zero-thread split"
    (Invalid_argument "Runner.split: threads must be positive") (fun () ->
      ignore (Runner.bohm_at 0))

let test_runner_engine_names () =
  Alcotest.(check (list string)) "legend order"
    [ "2PL"; "Bohm"; "OCC"; "SI"; "Hekaton" ]
    (List.map Runner.name (Runner.all 1))

(* --- Autotune (SEDA controller, paper §4.1) --- *)

let test_autotune_valid_result () =
  let spec =
    Runner.ycsb_spec ~rows:10_000 ~record_bytes:8
  in
  let txns = Ycsb.generate ~rows:10_000 ~theta:0.0 ~count:3_000 ~seed:21 (Ycsb.rmw_profile 10) in
  let r = Bohm_harness.Autotune.search ~probe_txns:2_000 ~threads:8 spec txns in
  Alcotest.(check bool) "cc in range" true
    (r.Bohm_harness.Autotune.cc_threads >= 1 && r.Bohm_harness.Autotune.cc_threads <= 7);
  Alcotest.(check int) "threads conserved" 8
    (r.Bohm_harness.Autotune.cc_threads + r.Bohm_harness.Autotune.exec_threads);
  Alcotest.(check bool) "samples collected" true
    (List.length r.Bohm_harness.Autotune.samples >= 4);
  let best_sample =
    List.fold_left (fun acc (_, t) -> max acc t) 0. r.Bohm_harness.Autotune.samples
  in
  Alcotest.(check (float 0.001)) "winner is the best sample" best_sample
    r.Bohm_harness.Autotune.throughput

let test_autotune_finds_balanced_split_for_cc_heavy_load () =
  (* 10RMW on tiny records: CC work ~ exec work, so the winner should be
     an interior split, not a degenerate one (the ablation sweep peaks
     near 50%). *)
  let spec =
    Runner.ycsb_spec ~rows:50_000 ~record_bytes:8
  in
  let txns = Ycsb.generate ~rows:50_000 ~theta:0.0 ~count:6_000 ~seed:23 (Ycsb.rmw_profile 10) in
  let r = Bohm_harness.Autotune.search ~threads:16 spec txns in
  Alcotest.(check bool)
    (Printf.sprintf "interior split (cc=%d)" r.Bohm_harness.Autotune.cc_threads)
    true
    (r.Bohm_harness.Autotune.cc_threads >= 3 && r.Bohm_harness.Autotune.cc_threads <= 13)

let test_autotune_converges_with_wakeup () =
  (* The fig4 regime (contended 10RMW on 8-byte records) at 20 threads:
     exec-heavy splits cross the parking threshold (8+ execution
     threads), so the search probes both retry-discipline and
     wakeup-discipline splits in one sweep and must still converge on a
     consistent winner. *)
  let spec = Runner.ycsb_spec ~rows:50_000 ~record_bytes:8 in
  let txns =
    Ycsb.generate ~rows:50_000 ~theta:0.9 ~count:6_000 ~seed:29
      (Ycsb.rmw_profile 10)
  in
  let r = Bohm_harness.Autotune.search ~threads:20 spec txns in
  Alcotest.(check int) "threads conserved" 20
    (r.Bohm_harness.Autotune.cc_threads + r.Bohm_harness.Autotune.exec_threads);
  Alcotest.(check bool) "wakeup-discipline splits probed" true
    (List.exists (fun (cc, _) -> 20 - cc >= 8) r.Bohm_harness.Autotune.samples);
  let best_sample =
    List.fold_left (fun acc (_, t) -> max acc t) 0. r.Bohm_harness.Autotune.samples
  in
  Alcotest.(check (float 0.001)) "winner is the best sample" best_sample
    r.Bohm_harness.Autotune.throughput;
  Alcotest.(check bool) "throughput positive" true
    (r.Bohm_harness.Autotune.throughput > 0.)

let test_autotune_rejects_one_thread () =
  let spec =
    Runner.ycsb_spec ~rows:100 ~record_bytes:8
  in
  Alcotest.check_raises "one thread"
    (Invalid_argument "Autotune.search: need at least 2 threads") (fun () ->
      ignore (Bohm_harness.Autotune.search ~threads:1 spec [||]))

(* --- Experiments (quick mode): structural checks + robust shapes --- *)

let check_series (s : Experiments.series) =
  Alcotest.(check bool) (s.Experiments.title ^ " has rows") true (s.Experiments.rows <> []);
  List.iter
    (fun (_, cells) ->
      Alcotest.(check int)
        (s.Experiments.title ^ " cells per row")
        (List.length s.Experiments.columns)
        (List.length cells);
      List.iter
        (function
          | Some v ->
              (* Throughputs are positive; auxiliary counters may be 0. *)
              if v < 0. || Float.is_nan v then
                Alcotest.failf "%s: negative cell" s.Experiments.title
          | None -> Alcotest.failf "%s: missing cell" s.Experiments.title)
        cells)
    (s.Experiments.rows)

(* Every driver's --quick series, computed at most once per process and
   looked up by its bench name: each experiment case reads this table. *)
let quick_table =
  List.map
    (fun (name, (f : ?scale:float -> ?quick:bool -> unit -> _)) ->
      (name, lazy (f ~scale:1.0 ~quick:true ())))
    Experiments.experiments

let quick name = Lazy.force (List.assoc name quick_table)

let test_experiments_structures () =
  List.iter
    (fun (name, _) ->
      let series = quick name in
      Alcotest.(check bool) (name ^ " non-empty") true (series <> []);
      List.iter check_series series)
    Experiments.experiments

let cell series ~row ~col =
  let _, cells = List.nth series.Experiments.rows row in
  match List.nth cells col with Some v -> v | None -> Alcotest.fail "missing cell"

let test_fig4_cc_threads_raise_ceiling () =
  match quick "fig4" with
  | [ s ] ->
      (* quick mode: exec in {2,8}, cc in {1,4}: at 8 exec threads, CC=4
         must beat CC=1 (the CC layer is the bottleneck with one thread). *)
      let cc1 = cell s ~row:1 ~col:0 and cc4 = cell s ~row:1 ~col:1 in
      Alcotest.(check bool)
        (Printf.sprintf "cc4 %.0f > cc1 %.0f" cc4 cc1)
        true (cc4 > cc1)
  | _ -> Alcotest.fail "fig4 shape"

let test_fig5_low_contention_locking_wins () =
  match quick "fig5" with
  | [ _high; low ] ->
      (* At 16 threads, theta 0: 2PL (col 0) above Hekaton (col 4). *)
      let twopl = cell low ~row:1 ~col:0 and hekaton = cell low ~row:1 ~col:4 in
      Alcotest.(check bool) "2PL > Hekaton at low contention" true (twopl > hekaton)
  | _ -> Alcotest.fail "fig5 shape"

let test_fig6_high_contention_bohm_beats_hekaton () =
  match quick "fig6" with
  | [ high; _low ] ->
      let bohm = cell high ~row:1 ~col:1 and hekaton = cell high ~row:1 ~col:4 in
      Alcotest.(check bool)
        (Printf.sprintf "Bohm %.0f > Hekaton %.0f under contention" bohm hekaton)
        true (bohm > hekaton)
  | _ -> Alcotest.fail "fig6 shape"

let test_tab9_multiversion_beats_single_version () =
  match quick "tab9" with
  | [ s ] ->
      (* Rows are sorted by throughput; the bottom engine must be
         single-version (2PL or OCC) and the top multi-version. *)
      let names = List.map fst s.Experiments.rows in
      let top = List.hd names and bottom = List.nth names (List.length names - 1) in
      Alcotest.(check bool) "top is multi-version" true
        (List.mem top [ "Bohm"; "SI"; "Hekaton" ]);
      Alcotest.(check bool) "bottom is single-version" true
        (List.mem bottom [ "2PL"; "OCC" ])
  | _ -> Alcotest.fail "tab9 shape"

let test_ablation_gc_collects () =
  match quick "ablation-gc" with
  | [ s ] -> (
      match s.Experiments.rows with
      | [ ("gc=on", [ _; Some collected_on ]); ("gc=off", [ _; Some collected_off ]) ] ->
          Alcotest.(check bool) "gc=on collects" true (collected_on > 0.);
          Alcotest.(check (float 0.)) "gc=off collects nothing" 0. collected_off
      | _ -> Alcotest.fail "gc ablation rows")
  | _ -> Alcotest.fail "gc ablation shape"

(* The lines of a JSON document's top-level array [key], between its
   opening line and the closing bracket at the same depth. *)
let json_array path key =
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let opening = Printf.sprintf "  \"%s\": [" key in
  let rec body acc = function
    | [] -> Alcotest.failf "%s: array %s is not closed" path key
    | l :: _ when String.starts_with ~prefix:"  ]" l -> List.rev acc
    | l :: rest -> body (l :: acc) rest
  in
  let rec find = function
    | [] -> Alcotest.failf "%s: no top-level array %s" path key
    | l :: rest when l = opening -> body [] rest
    | _ :: rest -> find rest
  in
  find lines

(* The recorded series file. The test stanza passes it (as a dune dep)
   as the first argument; run by hand from the repository root, the
   argument can be left out. *)
let recorded, argv =
  match Array.to_list Sys.argv with
  | exe :: path :: rest when Filename.check_suffix path ".json" ->
      (path, Array.of_list (exe :: rest))
  | _ -> ("BENCH_PR15.json", Sys.argv)

(* The determinism gate: the simulator is deterministic, so the --quick
   series of every experiment, written by the --json writer in
   [Experiments.experiments] order, must reproduce the "quick_series"
   recorded in BENCH_PR15.json byte for byte. A charged instruction
   leaking into an engine's schedule, the shard layer, the rebalancer or
   the unobserved schedule shows up here. *)
let test_quick_series_recorded () =
  let path = Filename.temp_file "quick" ".json" in
  Report.json_write ~path
    (List.concat_map (fun (name, _) -> quick name) Experiments.experiments);
  let got = json_array path "series" in
  Sys.remove path;
  let want = json_array recorded "quick_series" in
  let rec same line = function
    | w :: want, g :: got ->
        if w <> g then
          Alcotest.failf "quick_series line %d: recorded %s, got %s" line w g;
        same (line + 1) (want, got)
    | [], [] -> ()
    | want, got ->
        Alcotest.failf "quick_series from line %d: %d recorded, %d produced"
          line (List.length want) (List.length got)
  in
  same 1 (want, got)

let suite =
  [
    ( "reference",
      [
        Alcotest.test_case "serial semantics" `Quick test_reference_serial_semantics;
        Alcotest.test_case "abort rolls back" `Quick test_reference_abort_rolls_back;
        Alcotest.test_case "read own write" `Quick test_reference_read_own_write;
        Alcotest.test_case "fold and missing" `Quick test_reference_fold_and_missing;
      ] );
    ( "report",
      [
        Alcotest.test_case "float_to_string" `Quick test_float_to_string;
        Alcotest.test_case "json bytes" `Quick test_json_bytes;
      ] );
    ( "runner",
      [
        Alcotest.test_case "all engines complete" `Quick test_runner_all_engines_complete;
        Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
        Alcotest.test_case "bohm splits valid" `Quick test_runner_bohm_split_valid;
        Alcotest.test_case "rejects bad threads" `Quick test_runner_rejects_bad_threads;
        Alcotest.test_case "engine names" `Quick test_runner_engine_names;
      ] );
    ( "autotune",
      [
        Alcotest.test_case "valid result" `Quick test_autotune_valid_result;
        Alcotest.test_case "balanced split for cc-heavy load" `Slow
          test_autotune_finds_balanced_split_for_cc_heavy_load;
        Alcotest.test_case "converges with wakeup" `Quick
          test_autotune_converges_with_wakeup;
        Alcotest.test_case "rejects one thread" `Quick test_autotune_rejects_one_thread;
      ] );
    ( "experiments",
      [
        Alcotest.test_case "structures" `Slow test_experiments_structures;
        Alcotest.test_case "quick series recorded" `Slow test_quick_series_recorded;
        Alcotest.test_case "fig4: cc raises ceiling" `Slow test_fig4_cc_threads_raise_ceiling;
        Alcotest.test_case "fig5: 2pl wins low contention" `Slow test_fig5_low_contention_locking_wins;
        Alcotest.test_case "fig6: bohm beats hekaton" `Slow test_fig6_high_contention_bohm_beats_hekaton;
        Alcotest.test_case "tab9: mv beats 1v" `Slow test_tab9_multiversion_beats_single_version;
        Alcotest.test_case "ablation: gc collects" `Slow test_ablation_gc_collects;
      ] );
  ]

let () = Alcotest.run ~argv "bohm_harness" suite

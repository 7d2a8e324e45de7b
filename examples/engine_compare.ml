(* Engine shoot-out: the paper's headline comparison in miniature.

   Runs one YCSB 2RMW-8R workload (high contention) through all five
   engines on the deterministic multicore simulator at 32 simulated
   threads and prints throughput and abort behaviour — the section 4.2.2
   story: BOHM gets multi-version concurrency *and* serializability
   without aborting anybody.

     dune exec examples/engine_compare.exe *)

module Stats = Bohm_txn.Stats
module Ycsb = Bohm_workload.Ycsb
module Runner = Bohm_harness.Runner
module Report = Bohm_harness.Report

let () =
  let rows = 50_000 in
  let spec = Runner.ycsb_spec ~rows ~record_bytes:1000 in
  let txns =
    Ycsb.generate ~rows ~theta:0.9 ~count:4_000 ~seed:3
      (Ycsb.mixed_profile ~rmws:2 ~reads:8)
  in
  Report.header ~title:"YCSB 2RMW-8R, theta=0.9, 32 simulated threads";
  let rows_data =
    List.map
      (fun engine ->
        let stats = Runner.run_sim engine spec txns in
        ( Runner.name engine,
          [
            Some (Stats.throughput stats);
            Some (float_of_int stats.Stats.cc_aborts);
            Some (100. *. Stats.abort_rate stats);
          ] ))
      (Runner.all 32)
  in
  let rows_data =
    List.sort
      (fun (_, a) (_, b) -> compare (List.nth b 0) (List.nth a 0))
      rows_data
  in
  Report.print_series ~x_label:"engine"
    ~columns:[ "txns/s"; "cc aborts"; "abort %" ]
    ~rows:rows_data;
  print_newline ();
  Report.note "BOHM and 2PL never abort for concurrency-control reasons;";
  Report.note "the optimistic engines pay for contention with retries.";
  print_endline "engine_compare: OK"

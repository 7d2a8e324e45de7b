(* Tests for the MVTO engine (Reed's multiversion timestamp ordering):
   correctness invariants, serializability certification, and the two
   behaviours BOHM was designed to avoid — reads writing shared memory and
   readers aborting writers. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Check = Bohm_harness.Serialization_check

module Sim_engine = Bohm_mvto.Engine.Make (Sim)
module Mvto_real = Bohm_mvto.Engine.Make (Real)

let table = Table.make ~tid:0 ~name:"t" ~rows:64 ~record_bytes:8
let tables = [| table |]
let key row = Key.make ~table:0 ~row
let init_zero _ = Value.zero

let incr_txn id k n =
  Txn.make ~id ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
      ctx.Txn.write k (Value.add (ctx.Txn.read k) n);
      Txn.Commit)

let transfer_txn id a b n =
  Txn.make ~id ~read_set:[ a; b ] ~write_set:[ a; b ] (fun ctx ->
      ctx.Txn.write a (Value.add (ctx.Txn.read a) (-n));
      ctx.Txn.write b (Value.add (ctx.Txn.read b) n);
      Txn.Commit)

let run_sim ?jitter ~workers ?(init = init_zero) txns =
  Sim.run ?jitter (fun () ->
      let db = Sim_engine.create ~workers ~tables init in
      let stats = Sim_engine.run db txns in
      (stats, fun k -> Value.to_int (Sim_engine.read_latest db k)))

let test_no_lost_updates () =
  let txns = Array.init 300 (fun i -> incr_txn i (key 5) 1) in
  let stats, read = run_sim ~workers:4 txns in
  Alcotest.(check int) "all survive" 300 (read (key 5));
  Alcotest.(check int) "committed" 300 stats.Stats.committed

let test_transfers_conserve () =
  let rng = Rng.create ~seed:17 in
  let txns =
    Array.init 300 (fun i ->
        let a = Rng.int rng 64 and b = Rng.int rng 64 in
        if a = b then incr_txn i (key a) 0
        else transfer_txn i (key a) (key b) (1 + Rng.int rng 9))
  in
  let _, read = run_sim ~workers:4 txns in
  let total = ref 0 in
  for i = 0 to 63 do
    total := !total + read (key i)
  done;
  Alcotest.(check int) "conserved" 0 !total

let test_reads_write_shared_memory () =
  (* The defining cost of "Track Reads" (§2.2): even a read-only workload
     performs shared-memory writes. *)
  let txns =
    Array.init 200 (fun i ->
        let k = key (i mod 64) in
        Txn.make ~id:i ~read_set:[ k ] ~write_set:[] (fun ctx ->
            ignore (ctx.Txn.read k);
            Txn.Commit))
  in
  let stats, _ = run_sim ~workers:4 txns in
  let stamps =
    match Stats.extra stats "read_stamps" with Some f -> int_of_float f | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "read stamps %d > 0 on a read-only workload" stamps)
    true (stamps > 0)

let test_readers_abort_writers () =
  (* Slow writers racing fast readers of the same hot key: some writers
     must be killed by a later reader's stamp and retried. *)
  let txns =
    Array.init 300 (fun i ->
        let k = key 0 in
        if i mod 2 = 0 then
          Txn.make ~id:i ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
              let v = ctx.Txn.read k in
              ctx.Txn.spin 4_000;
              ctx.Txn.write k (Value.add v 1);
              Txn.Commit)
        else
          Txn.make ~id:i ~read_set:[ k ] ~write_set:[] (fun ctx ->
              ignore (ctx.Txn.read k);
              Txn.Commit))
  in
  let stats, read = run_sim ~workers:6 txns in
  Alcotest.(check int) "updates all applied" 150 (read (key 0));
  let reader_induced =
    match Stats.extra stats "reader_induced_aborts" with
    | Some f -> int_of_float f
    | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "reader-induced aborts %d > 0" reader_induced)
    true (reader_induced > 0)

let test_logic_abort_rolls_back () =
  let k = key 3 in
  let aborting =
    Txn.make ~id:1 ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
        ignore (ctx.Txn.read k);
        ctx.Txn.write k (Value.of_int 999);
        Txn.Abort)
  in
  let stats, read = run_sim ~workers:2 [| incr_txn 0 k 7; aborting; incr_txn 2 k 1 |] in
  Alcotest.(check int) "rolled back" 8 (read k);
  Alcotest.(check int) "logic abort" 1 stats.Stats.logic_aborts

let test_write_skew_forbidden () =
  let x = key 0 and y = key 1 in
  let dec id target =
    Txn.make ~id ~read_set:[ x; y ] ~write_set:[ target ] (fun ctx ->
        let total = Value.to_int (ctx.Txn.read x) + Value.to_int (ctx.Txn.read y) in
        ctx.Txn.spin 20_000;
        if total >= 2 then begin
          ctx.Txn.write target Value.zero;
          Txn.Commit
        end
        else Txn.Abort)
  in
  for seed = 0 to 14 do
    let _, read =
      run_sim ~jitter:(Rng.create ~seed) ~workers:2
        ~init:(fun _ -> Value.of_int 1)
        [| dec 0 y; dec 1 x |]
    in
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) 1 (read x + read y)
  done

let test_serialization_certified () =
  for seed = 1 to 20 do
    let w =
      Check.make_workload ~rows:24 ~txns:60 ~rmws_per_txn:2 ~reads_per_txn:2 ~seed
    in
    let check_tables = [| Table.make ~tid:0 ~name:"t" ~rows:24 ~record_bytes:8 |] in
    let final_read =
      Sim.run ~jitter:(Rng.create ~seed:(seed * 3)) (fun () ->
          let db = Sim_engine.create ~workers:4 ~tables:check_tables Check.initial_value in
          ignore (Sim_engine.run db (Check.txns w));
          Sim_engine.read_latest db)
    in
    match Check.check w ~final_read with
    | Check.Serializable -> ()
    | v -> Alcotest.failf "seed %d: %s" seed (Check.verdict_to_string v)
  done

let test_double_write_same_key () =
  let k = key 9 in
  let t =
    Txn.make ~id:0 ~read_set:[ k ] ~write_set:[ k ] (fun ctx ->
        ctx.Txn.write k (Value.of_int 10);
        ctx.Txn.write k (Value.add (ctx.Txn.read k) 1);
        Txn.Commit)
  in
  let _, read = run_sim ~workers:1 [| t |] in
  Alcotest.(check int) "last write wins, own reads seen" 11 (read k)

let test_real_runtime () =
  let db = Mvto_real.create ~workers:3 ~tables init_zero in
  let txns = Array.init 300 (fun i -> incr_txn i (key (i mod 8)) 1) in
  ignore (Mvto_real.run db txns);
  let total = ref 0 in
  for i = 0 to 7 do
    total := !total + Value.to_int (Mvto_real.read_latest db (key i))
  done;
  Alcotest.(check int) "no lost updates" 300 !total

let prop_never_loses_increments =
  QCheck.Test.make ~count:15 ~name:"mvto never loses increments"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 80 + Rng.int rng 80 in
      let txns = Array.init n (fun i -> incr_txn i (key (Rng.int rng 8)) 1) in
      let workers = 1 + Rng.int rng 5 in
      let _, read = run_sim ~jitter:(Rng.create ~seed:(seed + 3)) ~workers txns in
      let total = ref 0 in
      for i = 0 to 7 do
        total := !total + read (key i)
      done;
      !total = n)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "mvto",
      [
        Alcotest.test_case "no lost updates" `Quick test_no_lost_updates;
        Alcotest.test_case "transfers conserve" `Quick test_transfers_conserve;
        Alcotest.test_case "reads write shared memory" `Quick test_reads_write_shared_memory;
        Alcotest.test_case "readers abort writers" `Quick test_readers_abort_writers;
        Alcotest.test_case "logic abort rolls back" `Quick test_logic_abort_rolls_back;
        Alcotest.test_case "write skew forbidden" `Quick test_write_skew_forbidden;
        Alcotest.test_case "serialization certified" `Quick test_serialization_certified;
        Alcotest.test_case "double write same key" `Quick test_double_write_same_key;
        Alcotest.test_case "real runtime" `Quick test_real_runtime;
      ]
      @ qcheck [ prop_never_loses_increments ] );
  ]

let () = Alcotest.run "bohm_mvto" suite

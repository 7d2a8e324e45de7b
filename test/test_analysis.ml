(* Tests for Bohm_analysis: the footprint sanitizer, the version-chain
   checker and the happens-before race detector — each exercised directly
   on synthetic inputs, then end-to-end through sanitized engine runs with
   injected faults (each mutant must be caught by exactly its checker). *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Table = Bohm_storage.Table
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Costs = Bohm_runtime.Costs
module Report = Bohm_analysis.Report
module Footprint = Bohm_analysis.Footprint
module Chain = Bohm_analysis.Chain
module Race = Bohm_analysis.Race
module Runner = Bohm_harness.Runner
module Check = Bohm_harness.Serialization_check

let () = Costs.defaults ()
let k row = Key.make ~table:0 ~row

let counts r =
  ( Report.count_checker r Report.Footprint,
    Report.count_checker r Report.Chain,
    Report.count_checker r Report.Race )

let check_counts name expected r =
  Alcotest.(check (triple int int int)) name expected (counts r)

(* --- Report --- *)

let test_report_dedup () =
  let r = Report.create () in
  Report.add r ~txn:3 ~key:(k 1) Report.Undeclared_read "spurious";
  Report.add r ~txn:3 ~key:(k 1) Report.Undeclared_read "spurious";
  Report.add r ~txn:3 ~key:(k 1) Report.Undeclared_read "different detail";
  Alcotest.(check int) "duplicates dropped" 2 (Report.count r);
  Alcotest.(check bool) "not clean" false (Report.is_clean r);
  Alcotest.(check int) "occurrences keep duplicates" 3 (Report.occurrences r);
  Alcotest.(check (list int)) "per-entry hit counts" [ 2; 1 ]
    (List.map snd (Report.entries r))

(* Substring helper (avoid extra deps). *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_render () =
  let r = Report.create () in
  Alcotest.(check string) "clean" "sanitizer: clean" (Report.to_string r);
  Report.add r ~txn:12 ~key:(k 5) Report.Late_write "write after logic returned";
  let s = Report.to_string r in
  Alcotest.(check bool) "header" true (contains s "sanitizer: 1 diagnostic");
  Alcotest.(check bool) "kind rendered" true (contains s "late-write");
  Alcotest.(check bool) "singleton has no count suffix" false (contains s "[x");
  Report.add r ~txn:12 ~key:(k 5) Report.Late_write "write after logic returned";
  Alcotest.(check bool) "occurrence count rendered" true
    (contains (Report.to_string r) "[x2]")

(* --- Footprint shim (no engine, no simulator: pure ctx interposition) --- *)

let null_ctx () =
  { Txn.read = (fun _ -> Value.zero); write = (fun _ _ -> ()); spin = ignore }

let test_footprint_clean () =
  let r = Report.create () in
  let txn =
    Txn.make ~id:1 ~read_set:[ k 0; k 1 ] ~write_set:[ k 1 ] (fun ctx ->
        ignore (ctx.Txn.read (k 0));
        ignore (ctx.Txn.read (k 1));
        (* read-own-write key *)
        ctx.Txn.write (k 1) Value.zero;
        Txn.Commit)
  in
  let wrapped = Footprint.wrap r txn in
  ignore (wrapped.Txn.logic (null_ctx ()));
  Alcotest.(check bool) "clean" true (Report.is_clean r)

let test_footprint_violations () =
  let r = Report.create () in
  let leaked = ref None in
  let txn =
    Txn.make ~id:2 ~read_set:[ k 0; k 1 ] ~write_set:[ k 1 ] (fun ctx ->
        leaked := Some ctx;
        ignore (ctx.Txn.read (k 7));
        (* outside both sets *)
        ctx.Txn.write (k 0) Value.zero;
        (* read set only *)
        Txn.Commit)
  in
  let wrapped = Footprint.wrap r txn in
  ignore (wrapped.Txn.logic (null_ctx ()));
  (* The leaked ctx is the shim's: a write through it after return is a
     late write (still forwarded, still flagged). *)
  (Option.get !leaked).Txn.write (k 1) Value.zero;
  Alcotest.(check int) "undeclared read" 1
    (Report.count_kind r Report.Undeclared_read);
  Alcotest.(check int) "undeclared write" 1
    (Report.count_kind r Report.Undeclared_write);
  Alcotest.(check int) "late write" 1 (Report.count_kind r Report.Late_write);
  check_counts "all from footprint checker" (3, 0, 0) r

(* --- Chain checker on synthetic entries (newest first) --- *)

let entry ?end_ts ?(filled = true) ?(dangling_waiters = 0) ?slab ?batch
    begin_ts =
  { Chain.begin_ts; end_ts; filled; dangling_waiters; slab; batch }

let test_chain_ok () =
  let r = Report.create () in
  Chain.check_key r (k 0)
    [
      entry 9 ~end_ts:Chain.infinity_ts;
      entry 4 ~end_ts:9;
      entry 0 ~end_ts:4;
    ];
  (* MVTO-style chain without end stamps. *)
  Chain.check_key r (k 1) [ entry 7; entry 3; entry 0 ];
  Alcotest.(check bool) "clean" true (Report.is_clean r)

let test_chain_out_of_order () =
  let r = Report.create () in
  Chain.check_key r (k 0) [ entry 3; entry 5; entry 0 ];
  Alcotest.(check int) "flagged" 1 (Report.count_kind r Report.Chain_out_of_order)

let test_chain_unfilled () =
  let r = Report.create () in
  Chain.check_key r (k 0) [ entry 5 ~filled:false ~end_ts:Chain.infinity_ts; entry 0 ~end_ts:5 ];
  Alcotest.(check int) "flagged" 1 (Report.count_kind r Report.Chain_unfilled)

let test_chain_end_mismatch () =
  let r = Report.create () in
  (* Head must carry the infinity stamp... *)
  Chain.check_key r (k 0) [ entry 5 ~end_ts:7; entry 0 ~end_ts:5 ];
  (* ...and interior ends must equal the successor's begin. *)
  Chain.check_key r (k 1)
    [ entry 5 ~end_ts:Chain.infinity_ts; entry 0 ~end_ts:6 ];
  Alcotest.(check int) "flagged" 2
    (Report.count_kind r Report.Chain_end_mismatch)

let test_chain_slab_discipline () =
  let r = Report.create () in
  (* Clean arena chain: one owner, slab seq non-increasing toward older
     versions, indices strictly decreasing within a slab, heap tail. *)
  Chain.check_key r (k 0)
    [
      entry 9 ~end_ts:Chain.infinity_ts ~slab:(1, 2, 0);
      entry 4 ~end_ts:9 ~slab:(1, 1, 7);
      entry 2 ~end_ts:4 ~slab:(1, 1, 3);
      entry 0 ~end_ts:2;
    ];
  Alcotest.(check bool) "clean" true (Report.is_clean r);
  (* Each violation arm: foreign owner, newer slab, bump-order reversal. *)
  let flags newer older =
    let r = Report.create () in
    Chain.check_key r (k 1)
      [ entry 9 ~end_ts:Chain.infinity_ts ~slab:newer; entry 4 ~end_ts:9 ~slab:older ];
    Report.count_kind r Report.Chain_cross_slab
  in
  Alcotest.(check int) "crosses arenas" 1 (flags (1, 2, 0) (0, 2, 1));
  Alcotest.(check int) "newer slab" 1 (flags (1, 2, 0) (1, 3, 1));
  Alcotest.(check int) "against bump order" 1 (flags (1, 2, 3) (1, 2, 3))

let test_chain_cross_slab_shadows_timestamp_checks () =
  (* A corrupt link's timestamps describe some other chain's version:
     the pair reports only the arena violation, not the bogus ordering
     it implies. *)
  let r = Report.create () in
  Chain.check_key r (k 0)
    [
      entry 3 ~end_ts:Chain.infinity_ts ~slab:(0, 1, 2);
      entry 8 ~end_ts:5 ~slab:(1, 0, 4);
    ];
  Alcotest.(check int) "cross-slab" 1 (Report.count_kind r Report.Chain_cross_slab);
  Alcotest.(check int) "order check skipped" 0
    (Report.count_kind r Report.Chain_out_of_order);
  Alcotest.(check int) "end check skipped" 0
    (Report.count_kind r Report.Chain_end_mismatch)

(* --- Race detector on hand-built simulator schedules --- *)

let traced body =
  let r = Report.create () in
  Race.with_tracing r (fun () -> Sim.run body);
  r

let test_race_unsynchronized () =
  let r =
    traced (fun () ->
        let c = Sim.Cell.make 0 in
        let t1 = Sim.spawn (fun () -> Sim.Cell.set c 1) in
        let t2 = Sim.spawn (fun () -> Sim.Cell.set c 2) in
        Sim.join t1;
        Sim.join t2)
  in
  Alcotest.(check int) "write-write race" 1 (Report.count_kind r Report.Data_race)

let test_race_flag_synchronized () =
  let r =
    traced (fun () ->
        let c = Sim.Cell.make 0 in
        let flag = Sim.Cell.make 0 in
        Sim.Cell.mark_sync flag;
        let t1 =
          Sim.spawn (fun () ->
              Sim.Cell.set c 1;
              Sim.Cell.set flag 1)
        in
        let t2 =
          Sim.spawn (fun () ->
              while Sim.Cell.get flag = 0 do
                Sim.relax ()
              done;
              Sim.Cell.set c 2)
        in
        Sim.join t1;
        Sim.join t2;
        ignore (Sim.Cell.get c))
  in
  Alcotest.(check bool) "release/acquire orders the writes" true
    (Report.is_clean r)

let test_race_rmw_promotion () =
  (* An RMW cell is synchronization by nature: concurrent faa is not a
     race, and neither is the main thread's read after joining. *)
  let r =
    traced (fun () ->
        let c = Sim.Cell.make 0 in
        let worker () = ignore (Sim.Cell.faa c 1) in
        let ts = List.init 3 (fun _ -> Sim.spawn worker) in
        List.iter Sim.join ts;
        ignore (Sim.Cell.get c))
  in
  Alcotest.(check bool) "promoted to sync" true (Report.is_clean r)

let test_race_join_orders () =
  let r =
    traced (fun () ->
        let c = Sim.Cell.make 0 in
        let t1 = Sim.spawn (fun () -> Sim.Cell.set c 1) in
        Sim.join t1;
        (* After the join this thread is ordered after t1's write. *)
        let t2 = Sim.spawn (fun () -> Sim.Cell.set c 2) in
        Sim.join t2)
  in
  Alcotest.(check bool) "join edge" true (Report.is_clean r)

(* --- Injected faults: each mutant caught by exactly its checker --- *)

let spec rows =
  {
    Runner.tables = [| Table.make ~tid:0 ~name:"t" ~rows ~record_bytes:8 |];
    init = (fun _ -> Value.zero);
  }

let rmw_txn id row =
  Txn.make ~id ~read_set:[ k row ] ~write_set:[ k row ] (fun ctx ->
      let v = Value.to_int (ctx.Txn.read (k row)) in
      ctx.Txn.write (k row) (Value.of_int (v + 1));
      Txn.Commit)

let test_mutant_undeclared_read () =
  (* Logic peeks at a row outside its declared footprint: only the
     footprint shim can see it (the row is otherwise untouched, so the
     race and chain checkers stay silent). *)
  let mutant =
    Txn.make ~id:3 ~read_set:[ k 2 ] ~write_set:[ k 2 ] (fun ctx ->
        ignore (ctx.Txn.read (k 9));
        let v = Value.to_int (ctx.Txn.read (k 2)) in
        ctx.Txn.write (k 2) (Value.of_int (v + 1));
        Txn.Commit)
  in
  let _, r =
    Runner.run_sim_sanitized (Runner.Twopl 2) (spec 16)
      [| rmw_txn 1 0; rmw_txn 2 1; mutant |]
  in
  Alcotest.(check int) "undeclared read" 1
    (Report.count_kind r Report.Undeclared_read);
  check_counts "footprint only" (1, 0, 0) r

let test_mutant_dropped_write () =
  (* A dropped declared write cannot be produced through transaction logic
     — BOHM's §3.3.1 copy-forward rule finalizes unexercised write-set
     entries, by design — so the fault is injected below [install]:
     [inject_lost_fill] models an execution thread that claimed the
     producer but died before filling the placeholder. Only the chain
     audit can see it. *)
  let module B = Bohm_core.Engine.Make (Sim) in
  let r = Report.create () in
  let txns =
    Footprint.wrap_all r [| rmw_txn 1 0; rmw_txn 2 1; rmw_txn 3 5 |]
  in
  Race.with_tracing r (fun () ->
      Sim.run (fun () ->
          let config =
            Bohm_core.Config.make ~cc_threads:1 ~exec_threads:3 ~batch_size:8 ()
          in
          let db =
            B.create config
              ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:16 ~record_bytes:8 |]
              (fun _ -> Value.zero)
          in
          ignore (B.run db txns);
          B.inject_lost_fill db (k 5);
          B.check_chains db r));
  Alcotest.(check int) "unfilled placeholder" 1
    (Report.count_kind r Report.Chain_unfilled);
  check_counts "chain only" (0, 1, 0) r

let test_mutant_dangling_waiter () =
  (* A registered waiter nobody ever claims or wakes cannot be produced
     through the engine's protocol — the per-record claim token makes
     every wakeup exactly-once — so the fault is injected after the run:
     [inject_dangling_waiter] models a filler that sealed a version's
     waiter list without draining it. Only the dangling-waiter chain
     audit can see it (the version is filled and correctly linked, so the
     other chain invariants and the race tracer stay silent). *)
  let module B = Bohm_core.Engine.Make (Sim) in
  let r = Report.create () in
  let txns =
    Footprint.wrap_all r [| rmw_txn 1 0; rmw_txn 2 1; rmw_txn 3 5 |]
  in
  Race.with_tracing r (fun () ->
      Sim.run (fun () ->
          let config =
            Bohm_core.Config.make ~cc_threads:1 ~exec_threads:3 ~batch_size:8 ()
          in
          let db =
            B.create config
              ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:16 ~record_bytes:8 |]
              (fun _ -> Value.zero)
          in
          ignore (B.run db txns);
          B.inject_dangling_waiter db (k 5);
          B.check_chains db r));
  Alcotest.(check int) "dangling waiter" 1
    (Report.count_kind r Report.Chain_dangling_waiter);
  check_counts "chain only" (0, 1, 0) r

let test_mutant_cross_slab_prev () =
  (* A prev link into another CC thread's arena cannot be produced through
     the engine — each partition's versions come from its owning thread's
     bump allocator — so the fault is injected after the run:
     [inject_cross_slab_prev] rewires a head's prev to another partition's
     head, modelling a stale or miscomputed slab index. Only the chain
     audit's arena discipline can see it (both versions are filled and
     timestamp checks are skipped across the corrupt link). *)
  let module B = Bohm_core.Engine.Make (Sim) in
  let cc = 2 in
  let target = 5 in
  let donor =
    (* First row hashing to the other CC partition. *)
    let p r = Key.hash (k r) mod cc in
    let rec find r = if p r <> p target then r else find (r + 1) in
    find 0
  in
  let r = Report.create () in
  let txns =
    Footprint.wrap_all r [| rmw_txn 1 target; rmw_txn 2 donor; rmw_txn 3 1 |]
  in
  Race.with_tracing r (fun () ->
      Sim.run (fun () ->
          let config =
            Bohm_core.Config.make ~cc_threads:cc ~exec_threads:3 ~batch_size:8
              ()
          in
          let db =
            B.create config
              ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:16 ~record_bytes:8 |]
              (fun _ -> Value.zero)
          in
          ignore (B.run db txns);
          B.inject_cross_slab_prev db (k target) ~donor:(k donor);
          B.check_chains db r));
  Alcotest.(check int) "cross-slab prev" 1
    (Report.count_kind r Report.Chain_cross_slab);
  check_counts "chain only" (0, 1, 0) r

let test_mutant_cross_slab_under_rebalance () =
  (* The chain audit must stay slab-aware when the partition map moves
     mid-run: every version's owner is re-derived through the map its
     batch actually ran with, not the static hash. The workload hammers
     the rows of one hash class — at cc=2 (nsegs=16) the class occupies
     exactly segments 0 and 8, both statically partition 0 — so the
     rebalancer provably splits them across the two partitions. After the
     run a seg-0 row and a seg-8 row therefore live in different arenas;
     rewiring one's prev into the other must be flagged, and it is only
     flagged if the audit consults the per-batch maps (under the static
     derivation both rows look like partition 0 and the corrupt link is
     invisible). *)
  let module B = Bohm_core.Engine.Make (Sim) in
  let rows = List.init 64 Fun.id in
  let hot = List.filter (fun r -> Key.hash (k r) mod 8 = 0) rows in
  let seg0 = List.filter (fun r -> Key.hash (k r) mod 16 = 0) hot in
  let seg8 = List.filter (fun r -> Key.hash (k r) mod 16 = 8) hot in
  Alcotest.(check bool) "both hot segments populated" true
    (seg0 <> [] && seg8 <> []);
  let cold = List.filter (fun r -> Key.hash (k r) mod 8 <> 0) rows in
  let hot = Array.of_list hot and cold = Array.of_list cold in
  let nh = Array.length hot and nc = Array.length cold in
  let rmw3 id a b c =
    let ks = [ k a; k b; k c ] in
    Txn.make ~id ~read_set:ks ~write_set:ks (fun ctx ->
        List.iter
          (fun key -> ctx.Txn.write key (Value.add (ctx.Txn.read key) 1))
          ks;
        Txn.Commit)
  in
  let txns =
    Array.init 300 (fun i ->
        rmw3 i hot.(i mod nh) hot.((i + 1) mod nh) cold.(i mod nc))
  in
  let clean_before, r = (Report.create (), Report.create ()) in
  let rebalances =
    Sim.run (fun () ->
        let config =
          Bohm_core.Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
            ~gc:false ~preprocess:true ()
        in
        let db =
          B.create config
            ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:64 ~record_bytes:8 |]
            (fun _ -> Value.zero)
        in
        let stats = B.run db txns in
        (* No false positives first: moved segments alone are clean. *)
        B.check_chains db clean_before;
        B.inject_cross_slab_prev db (k (List.hd seg0))
          ~donor:(k (List.hd seg8));
        B.check_chains db r;
        Bohm_txn.Stats.extra stats "rebalances")
  in
  (match rebalances with
  | Some n -> Alcotest.(check bool) "a rebalance was published" true (n >= 1.)
  | None -> Alcotest.fail "rebalance extras missing");
  Alcotest.(check bool) "clean before injection" true
    (Report.is_clean clean_before);
  (* GC is off, so after the corrupt hop the audit keeps walking the
     donor's long chain and reports every foreign version — at least one
     cross-slab diagnostic, all from the chain checker. *)
  Alcotest.(check bool) "cross-slab prev across moved maps" true
    (Report.count_kind r Report.Chain_cross_slab >= 1);
  let f, c, ra = counts r in
  Alcotest.(check bool) "chain checker only" true
    (f = 0 && ra = 0 && c >= 1)

let test_mutant_rogue_cell_race () =
  (* Logic mutates shared state behind the engine's back — a plain cell
     with no lock and no version chain. Invisible to the footprint shim
     (not a ctx access) and to the chain audit (not in a store); only the
     race detector can catch it. *)
  let rogue = Sim.Cell.make 0 in
  let rogue_txn id row =
    Txn.make ~id ~read_set:[ k row ] ~write_set:[ k row ] (fun ctx ->
        Sim.Cell.set rogue id;
        let v = Value.to_int (ctx.Txn.read (k row)) in
        ctx.Txn.write (k row) (Value.of_int (v + 1));
        Txn.Commit)
  in
  let _, r =
    Runner.run_sim_sanitized (Runner.Twopl 2) (spec 16)
      [| rogue_txn 1 0; rogue_txn 2 1; rogue_txn 3 2; rogue_txn 4 3 |]
  in
  Alcotest.(check int) "rogue write-write race" 1
    (Report.count_kind r Report.Data_race);
  Alcotest.(check int) "no footprint diags" 0
    (Report.count_checker r Report.Footprint);
  Alcotest.(check int) "no chain diags" 0 (Report.count_checker r Report.Chain)

(* --- Every engine, fully sanitized, comes back clean --- *)

let test_all_engines_sanitized_clean () =
  let w =
    Check.make_workload ~rows:16 ~txns:40 ~rmws_per_txn:2 ~reads_per_txn:2
      ~seed:5
  in
  let spec =
    { Runner.tables = [| Table.make ~tid:0 ~name:"t" ~rows:16 ~record_bytes:8 |];
      init = Check.initial_value }
  in
  List.iter
    (fun engine ->
      let stats, r =
        Runner.run_sim_sanitized engine spec (Check.txns w)
      in
      Alcotest.(check int)
        (Runner.name engine ^ " commits all")
        40 stats.Bohm_txn.Stats.committed;
      Alcotest.(check string)
        (Runner.name engine ^ " sanitized clean")
        "sanitizer: clean" (Report.to_string r))
    (Runner.all 4 @ [ Runner.Mvto 4 ])

(* --- Serialization checker: Corrupt verdicts on hand-fed observations --- *)

let feed_logic txn reads =
  (* Run a workload transaction's logic against scripted read results so
     its observation buffer records exactly [reads]. *)
  let remaining = ref reads in
  let ctx =
    {
      Txn.read =
        (fun _ ->
          match !remaining with
          | v :: tl ->
              remaining := tl;
              Value.of_int v
          | [] -> Value.zero);
      write = (fun _ _ -> ());
      spin = ignore;
    }
  in
  ignore (txn.Txn.logic ctx)

let corrupt_msg = function
  | Check.Corrupt msg -> msg
  | v -> Alcotest.failf "expected Corrupt, got %s" (Check.verdict_to_string v)

let test_corrupt_lost_update () =
  let w = Check.make_workload ~rows:1 ~txns:2 ~rmws_per_txn:1 ~reads_per_txn:0 ~seed:1 in
  let txns = Check.txns w in
  feed_logic txns.(0) [ 0 ];
  feed_logic txns.(1) [ 0 ];
  (* both claim to overwrite the initial version *)
  let msg = corrupt_msg (Check.check w ~final_read:(fun _ -> Value.of_int 2)) in
  Alcotest.(check bool) "names lost update" true (contains msg "lost update")

let test_corrupt_phantom_value () =
  let w = Check.make_workload ~rows:2 ~txns:1 ~rmws_per_txn:1 ~reads_per_txn:1 ~seed:1 in
  let txns = Check.txns w in
  (* RMW observes the initial version; the pure read observes writer 77,
     which never ran. *)
  feed_logic txns.(0) [ 0; 77 ];
  let msg = corrupt_msg (Check.check w ~final_read:(fun _ -> Value.of_int 1)) in
  Alcotest.(check bool) "names phantom" true (contains msg "phantom value")

let test_corrupt_short_chain () =
  let w = Check.make_workload ~rows:1 ~txns:2 ~rmws_per_txn:1 ~reads_per_txn:0 ~seed:1 in
  let txns = Check.txns w in
  feed_logic txns.(0) [ 0 ];
  feed_logic txns.(1) [ 2 ];
  (* txn 2 claims txn 2 as predecessor: unreachable *)
  let msg = corrupt_msg (Check.check w ~final_read:(fun _ -> Value.of_int 1)) in
  Alcotest.(check bool) "names short chain" true (contains msg "of 2 writers")

let test_corrupt_final_mismatch () =
  let w = Check.make_workload ~rows:1 ~txns:1 ~rmws_per_txn:1 ~reads_per_txn:0 ~seed:1 in
  let txns = Check.txns w in
  feed_logic txns.(0) [ 0 ];
  let msg = corrupt_msg (Check.check w ~final_read:(fun _ -> Value.of_int 9)) in
  Alcotest.(check bool) "names final value" true (contains msg "final value is 9")

(* Corruption must take precedence over cycle detection: a Corrupt
   verdict means the observations fit no one-copy execution at all, so
   reporting the (also present) cycle would understate the failure. Both
   tests stage a genuine wr-cycle between txns 1 and 2 — each pure-reads
   the other's write — and then break the observations another way. *)

let cyclic_workload ~txns:n =
  (* A workload over two rows where txn 1 and txn 2 RMW different rows
     (so each one's pure read is of the other's row), and any further
     txns RMW txn 1's row. Seed-searched; the generator draws rows
     uniformly. *)
  let rec pick seed =
    if seed > 10_000 then Alcotest.fail "no suitable seed"
    else
      let w =
        Check.make_workload ~rows:2 ~txns:n ~rmws_per_txn:1 ~reads_per_txn:1
          ~seed
      in
      let txns = Check.txns w in
      let row i = Key.row txns.(i).Txn.write_set.(0) in
      if row 0 <> row 1 && (n < 3 || row 2 = row 0) then w else pick (seed + 1)
  in
  pick 1

let test_corrupt_beats_cycle_final_mismatch () =
  let w = cyclic_workload ~txns:2 in
  let txns = Check.txns w in
  let row_a = Key.row txns.(0).Txn.write_set.(0) in
  feed_logic txns.(0) [ 0; 2 ];
  feed_logic txns.(1) [ 0; 1 ];
  (* With a truthful final state the verdict is the cycle... *)
  (match
     Check.check w
       ~final_read:(fun key ->
         Value.of_int (if Key.row key = row_a then 1 else 2))
   with
  | Check.Cycle _ -> ()
  | v -> Alcotest.failf "expected Cycle, got %s" (Check.verdict_to_string v));
  (* ...but a final state naming a writer that never ran is Corrupt, not
     Cycle, even though the cycle is still in the observations. *)
  let msg = corrupt_msg (Check.check w ~final_read:(fun _ -> Value.of_int 9)) in
  Alcotest.(check bool) "corruption wins over the cycle" true
    (contains msg "final value is 9")

let test_corrupt_beats_cycle_lost_update () =
  let w = cyclic_workload ~txns:3 in
  let txns = Check.txns w in
  let row_a = Key.row txns.(0).Txn.write_set.(0) in
  feed_logic txns.(0) [ 0; 2 ];
  feed_logic txns.(1) [ 0; 1 ];
  (* txn 3 RMWs txn 1's row and claims the same predecessor (the initial
     version): a lost update on top of the 1<->2 cycle. *)
  feed_logic txns.(2) [ 0; 2 ];
  let msg =
    corrupt_msg
      (Check.check w
         ~final_read:(fun key ->
           Value.of_int (if Key.row key = row_a then 3 else 2)))
  in
  Alcotest.(check bool) "lost update wins over the cycle" true
    (contains msg "lost update")

(* --- Workload generation: distinct rows, deterministic --- *)

let test_workload_distinct_rows () =
  (* Footprint size equals rows: only possible if every draw is distinct
     (Txn.make deduplicates, so a collision would shrink the footprint). *)
  let w = Check.make_workload ~rows:6 ~txns:20 ~rmws_per_txn:3 ~reads_per_txn:3 ~seed:9 in
  Array.iter
    (fun txn ->
      Alcotest.(check int) "distinct footprint" 6
        (Array.length (Txn.footprint txn)))
    (Check.txns w)

let test_workload_deterministic () =
  let fp w =
    Array.map (fun t -> Array.map Key.row (Txn.footprint t)) (Check.txns w)
  in
  let mk () = Check.make_workload ~rows:24 ~txns:30 ~rmws_per_txn:2 ~reads_per_txn:3 ~seed:42 in
  Alcotest.(check bool) "same seed, same workload" true (fp (mk ()) = fp (mk ()))

(* --- Store probe count: exact under the real runtime's parallel domains --- *)

module Real_store = Bohm_storage.Store.Make (Real)

let test_real_probe_count_exact () =
  let store =
    Real_store.create_array
      ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:64 ~record_bytes:8 |]
      (fun _ -> ())
  in
  let per = 25_000 in
  let ds =
    List.init 4 (fun d ->
        Real.spawn (fun () ->
            for i = 1 to per do
              ignore (Real_store.probe store (Key.make ~table:0 ~row:((i + d) mod 64)))
            done))
  in
  List.iter Real.join ds;
  Alcotest.(check int) "no lost increments" (4 * per)
    (Real_store.probe_count store);
  Real_store.reset_probe_count store;
  Alcotest.(check int) "reset" 0 (Real_store.probe_count store)

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "dedup" `Quick test_report_dedup;
        Alcotest.test_case "render" `Quick test_report_render;
      ] );
    ( "footprint",
      [
        Alcotest.test_case "clean" `Quick test_footprint_clean;
        Alcotest.test_case "violations" `Quick test_footprint_violations;
      ] );
    ( "chain",
      [
        Alcotest.test_case "ok" `Quick test_chain_ok;
        Alcotest.test_case "out of order" `Quick test_chain_out_of_order;
        Alcotest.test_case "unfilled" `Quick test_chain_unfilled;
        Alcotest.test_case "end mismatch" `Quick test_chain_end_mismatch;
        Alcotest.test_case "slab discipline" `Quick test_chain_slab_discipline;
        Alcotest.test_case "cross-slab shadows timestamps" `Quick
          test_chain_cross_slab_shadows_timestamp_checks;
      ] );
    ( "race",
      [
        Alcotest.test_case "unsynchronized" `Quick test_race_unsynchronized;
        Alcotest.test_case "flag synchronized" `Quick test_race_flag_synchronized;
        Alcotest.test_case "rmw promotion" `Quick test_race_rmw_promotion;
        Alcotest.test_case "join orders" `Quick test_race_join_orders;
      ] );
    ( "mutants",
      [
        Alcotest.test_case "undeclared read" `Quick test_mutant_undeclared_read;
        Alcotest.test_case "dropped write" `Quick test_mutant_dropped_write;
        Alcotest.test_case "dangling waiter" `Quick test_mutant_dangling_waiter;
        Alcotest.test_case "cross-slab prev" `Quick test_mutant_cross_slab_prev;
        Alcotest.test_case "cross-slab prev under rebalance" `Quick
          test_mutant_cross_slab_under_rebalance;
        Alcotest.test_case "rogue cell race" `Quick test_mutant_rogue_cell_race;
      ] );
    ( "engines",
      [
        Alcotest.test_case "all sanitized clean" `Quick
          test_all_engines_sanitized_clean;
      ] );
    ( "corrupt verdicts",
      [
        Alcotest.test_case "lost update" `Quick test_corrupt_lost_update;
        Alcotest.test_case "phantom value" `Quick test_corrupt_phantom_value;
        Alcotest.test_case "short chain" `Quick test_corrupt_short_chain;
        Alcotest.test_case "final mismatch" `Quick test_corrupt_final_mismatch;
        Alcotest.test_case "corrupt beats cycle: final mismatch" `Quick
          test_corrupt_beats_cycle_final_mismatch;
        Alcotest.test_case "corrupt beats cycle: lost update" `Quick
          test_corrupt_beats_cycle_lost_update;
      ] );
    ( "workload",
      [
        Alcotest.test_case "distinct rows" `Quick test_workload_distinct_rows;
        Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
      ] );
    ( "metric",
      [ Alcotest.test_case "real exact" `Quick test_real_probe_count_exact ] );
  ]

let () = Alcotest.run "bohm_analysis" suite

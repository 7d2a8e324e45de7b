(* Tests for Bohm_analysis_static: the transaction IR, the abstract
   footprint interpreter, the declaration certifier and the batch
   conflict-graph analyzer.

   The load-bearing properties:
   - soundness: must ⊆ observed ⊆ may for every execution of a lowered
     IR transaction (QCheck over random programs + hand-built cases);
   - the IR twins of the closure workload generators are equivalent
     key-for-key, state-for-state and (on the deterministic simulator)
     stat-for-stat;
   - seeded under-declarations are rejected statically, including ones
     the dynamic footprint shim cannot see because the run takes the
     innocent path;
   - the pre-execution conflict graph agrees edge-for-edge with the
     serialization graph observed from a deterministic BOHM run. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng
module Sim = Bohm_runtime.Sim
module Costs = Bohm_runtime.Costs
module Report = Bohm_analysis.Report
module Footprint = Bohm_analysis.Footprint
module Tir = Bohm_analysis_static.Tir
module Absint = Bohm_analysis_static.Absint
module Certify = Bohm_analysis_static.Certify
module Conflict_graph = Bohm_analysis_static.Conflict_graph
module Ycsb = Bohm_workload.Ycsb
module Ycsb_ir = Bohm_workload.Ycsb_ir
module Smallbank = Bohm_workload.Smallbank
module Smallbank_ir = Bohm_workload.Smallbank_ir
module Runner = Bohm_harness.Runner
module Reference = Bohm_harness.Reference
module Check = Bohm_harness.Serialization_check
module Bohm = Bohm_core.Engine.Make (Sim)

let () = Costs.defaults ()
let k ?(table = 0) row = Key.make ~table ~row
let key0 e = { Tir.ktable = 0; krow = e }
let rows_of ks = Array.to_list (Array.map (fun key -> (Key.table key, Key.row key)) ks)

(* A ctx that records every access and feeds reads from a script
   function. *)
let recording_ctx feed =
  let reads = ref [] and writes = ref [] in
  let ctx =
    {
      Txn.read =
        (fun key ->
          reads := key :: !reads;
          feed key);
      write = (fun key _ -> writes := key :: !writes);
      spin = ignore;
    }
  in
  (ctx, reads, writes)

(* --- Tir: validation and lowering --- *)

let test_tir_validation () =
  let invalid name body =
    match Tir.make ~name:"x" ~nparams:2 body with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  (* Register used before any definition. *)
  invalid "use before def" [ Tir.Write (key0 (Tir.Int 0), Tir.Vreg 0) ];
  (* Parameter out of range. *)
  invalid "param range" [ Tir.Read (0, key0 (Tir.Param 5)) ];
  (* Register defined in only one branch is not defined after the If. *)
  invalid "one-branch def"
    [
      Tir.Read (0, key0 (Tir.Int 0));
      Tir.If
        ( { Tir.op = Tir.Lt; lhs = Tir.Vreg 0; rhs = Tir.Vint 0 },
          [ Tir.Read (1, key0 (Tir.Int 1)) ],
          [] );
      Tir.Write (key0 (Tir.Int 2), Tir.Vreg 1);
    ];
  (* ...but defined in both branches it is. *)
  let ok =
    Tir.make ~name:"both" ~nparams:0
      [
        Tir.Read (0, key0 (Tir.Int 0));
        Tir.If
          ( { Tir.op = Tir.Lt; lhs = Tir.Vreg 0; rhs = Tir.Vint 0 },
            [ Tir.Read (1, key0 (Tir.Int 1)) ],
            [ Tir.Read (1, key0 (Tir.Int 2)) ] );
        Tir.Write (key0 (Tir.Int 3), Tir.Vreg 1);
      ]
  in
  Alcotest.(check int) "two registers" 2 ok.Tir.nregs;
  Alcotest.check_raises "arity"
    (Invalid_argument "Tir.instantiate: both: 1 args, 0 params") (fun () ->
      ignore (Tir.instantiate ok ~id:1 ~args:[| 3 |]))

let test_tir_lowering_semantics () =
  (* savings-style conditional: read row p0, abort if the sum would go
     negative, else write it back. *)
  let prog =
    Tir.make ~name:"cond" ~nparams:2
      [
        Tir.Read (0, key0 (Tir.Param 0));
        Tir.If
          ( { Tir.op = Tir.Lt;
              lhs = Tir.Vadd (Tir.Vreg 0, Tir.Vparam 1);
              rhs = Tir.Vint 0;
            },
            [ Tir.Abort ],
            [ Tir.Write (key0 (Tir.Param 0), Tir.Vadd (Tir.Vreg 0, Tir.Vparam 1)) ]
          );
      ]
  in
  let inst = Tir.instantiate prog ~id:1 ~args:[| 3; -10 |] in
  let txn = Certify.lower inst in
  (* Balance 4: 4 - 10 < 0, abort, no write. *)
  let ctx, reads, writes = recording_ctx (fun _ -> Value.of_int 4) in
  Alcotest.(check bool) "aborts" true (txn.Txn.logic ctx = Txn.Abort);
  Alcotest.(check (list (pair int int))) "read row 3" [ (0, 3) ]
    (rows_of (Array.of_list !reads));
  Alcotest.(check (list (pair int int))) "no writes" [] (rows_of (Array.of_list !writes));
  (* Balance 40: commits and writes. *)
  let ctx, _, writes = recording_ctx (fun _ -> Value.of_int 40) in
  Alcotest.(check bool) "commits" true (txn.Txn.logic ctx = Txn.Commit);
  Alcotest.(check (list (pair int int))) "writes row 3" [ (0, 3) ]
    (rows_of (Array.of_list !writes))

let test_tir_key_arithmetic () =
  let prog =
    Tir.make ~name:"arith" ~nparams:2
      [
        Tir.Read
          (0, key0 (Tir.Iadd (Tir.Imul (Tir.Param 0, Tir.Int 3), Tir.Int 1)));
        Tir.Write (key0 (Tir.Imod (Tir.Param 1, Tir.Int 5)), Tir.Vint 9);
      ]
  in
  let inst = Tir.instantiate prog ~id:1 ~args:[| 4; 13 |] in
  let fp = Absint.infer inst in
  Alcotest.(check (list (pair int int))) "read 4*3+1" [ (0, 13) ]
    (rows_of fp.Absint.may_reads);
  Alcotest.(check (list (pair int int))) "write 13 mod 5" [ (0, 3) ]
    (rows_of fp.Absint.may_writes)

(* --- Absint: may/must, joins, abort truncation, decided conditions --- *)

let test_absint_straight_line_exact () =
  let inst =
    Tir.instantiate
      (Ycsb_ir.update_prog ~rmws:2 ~reads:3)
      ~id:1
      ~args:[| 5; 9; 1; 2; 3 |]
  in
  let fp = Absint.infer inst in
  Alcotest.(check bool) "may = must reads" true
    (fp.Absint.may_reads = fp.Absint.must_reads);
  Alcotest.(check bool) "may = must writes" true
    (fp.Absint.may_writes = fp.Absint.must_writes);
  Alcotest.(check (list (pair int int))) "reads" [ (0, 1); (0, 2); (0, 3); (0, 5); (0, 9) ]
    (rows_of fp.Absint.may_reads);
  Alcotest.(check (list (pair int int))) "writes" [ (0, 5); (0, 9) ]
    (rows_of fp.Absint.may_writes);
  Alcotest.(check (list (pair int int))) "no conditional writes" []
    (rows_of (Absint.conditional_writes fp))

let test_absint_may_only_write () =
  (* TransactSavings: the savings write happens only on the non-negative
     branch — a may-write, not a must-write. *)
  let inst =
    Tir.instantiate
      (Smallbank_ir.prog ~spin:10 Smallbank.TransactSavings)
      ~id:1 ~args:[| 4; -50 |]
  in
  let fp = Absint.infer inst in
  Alcotest.(check (list (pair int int))) "may-writes savings" [ (1, 4) ]
    (rows_of fp.Absint.may_writes);
  Alcotest.(check (list (pair int int))) "must-writes empty" []
    (rows_of fp.Absint.must_writes);
  Alcotest.(check (list (pair int int))) "conditional = savings" [ (1, 4) ]
    (rows_of (Absint.conditional_writes fp));
  (* Reads before the branch are on every path. *)
  Alcotest.(check (list (pair int int))) "must-reads" [ (0, 4); (1, 4) ]
    (rows_of fp.Absint.must_reads)

let test_absint_must_write_both_branches () =
  (* WriteCheck RMWs checking on both overdraft branches: a must-write
     behind a runtime-data conditional. *)
  let inst =
    Tir.instantiate
      (Smallbank_ir.prog ~spin:10 Smallbank.WriteCheck)
      ~id:1 ~args:[| 7; 30 |]
  in
  let fp = Absint.infer inst in
  Alcotest.(check (list (pair int int))) "must-writes checking" [ (2, 7) ]
    (rows_of fp.Absint.must_writes);
  Alcotest.(check (list (pair int int))) "no conditional writes" []
    (rows_of (Absint.conditional_writes fp))

let test_absint_param_decided_branch () =
  (* The condition depends only on a parameter: decided exactly, the dead
     branch's accesses never enter even the may-sets. *)
  let prog =
    Tir.make ~name:"decided" ~nparams:1
      [
        Tir.If
          ( { Tir.op = Tir.Gt; lhs = Tir.Vparam 0; rhs = Tir.Vint 5 },
            [ Tir.Write (key0 (Tir.Int 1), Tir.Vint 0) ],
            [ Tir.Write (key0 (Tir.Int 2), Tir.Vint 0) ] );
      ]
  in
  let fp n = Absint.infer (Tir.instantiate prog ~id:1 ~args:[| n |]) in
  Alcotest.(check (list (pair int int))) "then branch" [ (0, 1) ]
    (rows_of (fp 9).Absint.may_writes);
  Alcotest.(check (list (pair int int))) "else branch" [ (0, 2) ]
    (rows_of (fp 3).Absint.may_writes);
  Alcotest.(check bool) "decided: may = must" true
    ((fp 9).Absint.may_writes = (fp 9).Absint.must_writes)

let test_absint_abort_truncates_must () =
  (* An access after a possible abort is may but not must. *)
  let prog =
    Tir.make ~name:"trunc" ~nparams:0
      [
        Tir.Read (0, key0 (Tir.Int 0));
        Tir.If
          ( { Tir.op = Tir.Lt; lhs = Tir.Vreg 0; rhs = Tir.Vint 0 },
            [ Tir.Abort ],
            [] );
        Tir.Read (1, key0 (Tir.Int 1));
        Tir.Write (key0 (Tir.Int 2), Tir.Vreg 1);
      ]
  in
  let fp = Absint.infer (Tir.instantiate prog ~id:1 ~args:[||]) in
  Alcotest.(check (list (pair int int))) "may-reads" [ (0, 0); (0, 1) ]
    (rows_of fp.Absint.may_reads);
  Alcotest.(check (list (pair int int))) "must-reads pre-abort only" [ (0, 0) ]
    (rows_of fp.Absint.must_reads);
  Alcotest.(check (list (pair int int))) "may-writes" [ (0, 2) ]
    (rows_of fp.Absint.may_writes);
  Alcotest.(check (list (pair int int))) "must-writes empty" []
    (rows_of fp.Absint.must_writes)

(* --- Certify: derivation, mutants, counterexamples --- *)

let test_certify_derive_matches_hand_declarations () =
  (* The closure generators' hand-written declarations coincide with the
     inferred may-sets of their IR twins, for every built-in workload. *)
  let pairs =
    [
      ( "ycsb 2rmw8r",
        Ycsb.generate ~rows:50 ~theta:0.8 ~count:60 ~seed:3
          (Ycsb.mixed_profile ~rmws:2 ~reads:8),
        Ycsb_ir.generate ~rows:50 ~theta:0.8 ~count:60 ~seed:3
          (Ycsb.mixed_profile ~rmws:2 ~reads:8) );
      ( "ycsb mix",
        Ycsb.generate_mix ~rows:200 ~read_only_fraction:0.3 ~scan:25
          ~update_profile:(Ycsb.rmw_profile 10) ~theta:0.6 ~count:60 ~seed:4,
        Ycsb_ir.generate_mix ~rows:200 ~read_only_fraction:0.3 ~scan:25
          ~update_profile:(Ycsb.rmw_profile 10) ~theta:0.6 ~count:60 ~seed:4 );
      ( "smallbank",
        Smallbank.generate ~customers:12 ~count:100 ~seed:5 ~spin:10 (),
        Smallbank_ir.generate ~customers:12 ~count:100 ~seed:5 ~spin:10 () );
    ]
  in
  List.iter
    (fun (name, closure, insts) ->
      let r = Report.create () in
      Certify.check_all r insts ~declared:closure;
      Alcotest.(check string) (name ^ " certifies clean") "sanitizer: clean"
        (Report.to_string r);
      Array.iteri
        (fun i inst ->
          let reads, writes = Certify.derive inst in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s #%d derived read set" name i)
            (rows_of closure.(i).Txn.read_set)
            (rows_of (Array.of_list reads));
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s #%d derived write set" name i)
            (rows_of closure.(i).Txn.write_set)
            (rows_of (Array.of_list writes)))
        insts)
    pairs

let diag_keys r kind =
  List.filter_map
    (fun d -> if d.Report.kind = kind then d.Report.key else None)
    (Report.diags r)

let test_certify_mutant_underdeclared_read () =
  let prog =
    Tir.make ~name:"peek" ~nparams:1
      [
        Tir.Read (0, key0 (Tir.Param 0));
        Tir.Read (1, key0 (Tir.Int 9));
        Tir.Rmw (2, key0 (Tir.Param 0), Tir.Vadd (Tir.Vreg 2, Tir.Vreg 1));
      ]
  in
  let inst = Tir.instantiate prog ~id:7 ~args:[| 2 |] in
  (* The declaration forgets the row-9 peek. *)
  let declared = Tir.lower_with ~read_set:[ k 2 ] ~write_set:[ k 2 ] inst in
  let r = Report.create () in
  Certify.check r inst ~declared;
  Alcotest.(check int) "one diagnostic" 1
    (Report.count_kind r Report.Static_undeclared_read);
  Alcotest.(check (list (pair int int))) "counterexample key" [ (0, 9) ]
    (rows_of (Array.of_list (diag_keys r Report.Static_undeclared_read)))

let test_certify_mutant_invisible_to_dynamic_shim () =
  (* A conditional write the declaration omits: on the run we take, the
     branch aborts — the dynamic footprint shim sees nothing wrong. Only
     the certifier rejects it, with the key as counterexample. *)
  let prog =
    Tir.make ~name:"sneaky" ~nparams:1
      [
        Tir.Read (0, key0 (Tir.Param 0));
        Tir.If
          ( { Tir.op = Tir.Lt; lhs = Tir.Vreg 0; rhs = Tir.Vint 0 },
            [ Tir.Abort ],
            [ Tir.Write (key0 (Tir.Int 5), Tir.Vint 1) ] );
      ]
  in
  let inst = Tir.instantiate prog ~id:3 ~args:[| 2 |] in
  let declared = Tir.lower_with ~read_set:[ k 2 ] ~write_set:[] inst in
  (* Dynamic run down the abort path: clean by the shim's lights. *)
  let dyn = Report.create () in
  let wrapped = Footprint.wrap dyn declared in
  let ctx, _, _ = recording_ctx (fun _ -> Value.of_int (-1)) in
  Alcotest.(check bool) "takes abort path" true
    (wrapped.Txn.logic ctx = Txn.Abort);
  Alcotest.(check bool) "shim is blind" true (Report.is_clean dyn);
  (* The certifier is not. *)
  let r = Report.create () in
  Certify.check r inst ~declared;
  Alcotest.(check int) "caught statically" 1
    (Report.count_kind r Report.Static_undeclared_write);
  Alcotest.(check (list (pair int int))) "counterexample key" [ (0, 5) ]
    (rows_of (Array.of_list (diag_keys r Report.Static_undeclared_write)))

let test_certify_overdeclared_is_legal () =
  let inst =
    Tir.instantiate
      (Ycsb_ir.update_prog ~rmws:1 ~reads:1)
      ~id:1 ~args:[| 3; 4 |]
  in
  let declared =
    Tir.lower_with ~read_set:[ k 3; k 4; k 8 ] ~write_set:[ k 3; k 9 ] inst
  in
  let r = Report.create () in
  Certify.check r inst ~declared;
  Alcotest.(check bool) "no diagnostics" true (Report.is_clean r);
  let over_r, over_w = Certify.overdeclared inst ~declared in
  Alcotest.(check (list (pair int int))) "wasted reads" [ (0, 8) ]
    (rows_of (Array.of_list over_r));
  Alcotest.(check (list (pair int int))) "wasted writes" [ (0, 9) ]
    (rows_of (Array.of_list over_w))

(* --- Soundness property: must ⊆ observed ⊆ may, on random programs --- *)

let nparams = 4

let gen_key rng =
  match Rng.int rng 3 with
  | 0 -> key0 (Tir.Param (Rng.int rng nparams))
  | 1 -> key0 (Tir.Int (Rng.int rng 8))
  | _ -> key0 (Tir.Iadd (Tir.Param (Rng.int rng nparams), Tir.Int (Rng.int rng 4)))

let gen_vexp rng defined =
  let base () =
    match (Rng.int rng 3, defined) with
    | 0, _ -> Tir.Vint (Rng.int rng 9 - 4)
    | 1, _ -> Tir.Vparam (Rng.int rng nparams)
    | _, [] -> Tir.Vint (Rng.int rng 5)
    | _, l -> Tir.Vreg (List.nth l (Rng.int rng (List.length l)))
  in
  if Rng.int rng 2 = 0 then base () else Tir.Vadd (base (), base ())

let cmps = [| Tir.Lt; Tir.Le; Tir.Eq; Tir.Ne; Tir.Ge; Tir.Gt |]

let rec gen_stmts rng ~fuel ~depth next_reg defined =
  if fuel <= 0 then ([], next_reg)
  else begin
    let stmt, next_reg, defined =
      match Rng.int rng (if depth > 0 then 5 else 4) with
      | 0 -> (Tir.Read (next_reg, gen_key rng), next_reg + 1, next_reg :: defined)
      | 1 -> (Tir.Write (gen_key rng, gen_vexp rng defined), next_reg, defined)
      | 2 ->
          ( Tir.Rmw (next_reg, gen_key rng, gen_vexp rng (next_reg :: defined)),
            next_reg + 1,
            next_reg :: defined )
      | 3 -> (Tir.Spin (Tir.Int 1), next_reg, defined)
      | _ ->
          let cond =
            {
              Tir.op = cmps.(Rng.int rng (Array.length cmps));
              lhs = gen_vexp rng defined;
              rhs = gen_vexp rng defined;
            }
          in
          let a, r1 =
            gen_stmts rng ~fuel:(Rng.int rng 3) ~depth:(depth - 1) next_reg
              defined
          in
          let a = if Rng.int rng 4 = 0 then a @ [ Tir.Abort ] else a in
          let b, r2 =
            gen_stmts rng ~fuel:(Rng.int rng 3) ~depth:(depth - 1) r1 defined
          in
          (* Branch-local registers are deliberately not used afterwards:
             [defined] stays the pre-If set (a subset of the validator's
             branch intersection, so always legal). *)
          (Tir.If (cond, a, b), r2, defined)
    in
    let rest, next_reg = gen_stmts rng ~fuel:(fuel - 1) ~depth next_reg defined in
    (stmt :: rest, next_reg)
  end

let random_instance seed =
  let rng = Rng.create ~seed in
  let body, _ = gen_stmts rng ~fuel:(1 + Rng.int rng 7) ~depth:2 0 [] in
  let prog = Tir.make ~name:"rand" ~nparams body in
  ( Tir.instantiate prog ~id:1 ~args:(Array.init nparams (fun _ -> Rng.int rng 8)),
    rng )

let mem_list key l = List.exists (fun key' -> Key.compare key key' = 0) l

let prop_soundness seed =
  let inst, rng = random_instance seed in
  let fp = Absint.infer inst in
  let txn = Certify.lower inst in
  (* Run under the dynamic footprint shim with random read feeds: the
     derived declarations must cover every access (observed ⊆ may), and
     every must-access must occur (must ⊆ observed). *)
  let shim = Report.create () in
  let wrapped = Footprint.wrap shim txn in
  let ctx, reads, writes = recording_ctx (fun _ -> Value.of_int (Rng.int rng 9 - 4)) in
  ignore (wrapped.Txn.logic ctx);
  List.for_all (Absint.mem fp.Absint.may_reads) !reads
  && List.for_all (Absint.mem fp.Absint.may_writes) !writes
  && Array.for_all (fun key -> mem_list key !reads) fp.Absint.must_reads
  && Array.for_all (fun key -> mem_list key !writes) fp.Absint.must_writes
  && Report.is_clean shim

let soundness_qcheck =
  QCheck.Test.make ~count:500 ~name:"must ⊆ observed ⊆ may (random IR, shim clean)"
    QCheck.small_nat prop_soundness

(* --- IR twins ≡ closure generators --- *)

let check_twin_equivalence name ~tables ~init closure lowered =
  Alcotest.(check int) (name ^ " same count") (Array.length closure)
    (Array.length lowered);
  Array.iteri
    (fun i t ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s #%d read set" name i)
        (rows_of t.Txn.read_set)
        (rows_of lowered.(i).Txn.read_set);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s #%d write set" name i)
        (rows_of t.Txn.write_set)
        (rows_of lowered.(i).Txn.write_set))
    closure;
  (* Same serial final state. *)
  let final txns =
    let o = Reference.create ~tables init in
    let outcomes = Reference.run o txns in
    (Reference.fold o ~init:[] (fun key v acc -> (rows_of [| key |], Value.to_int v) :: acc),
     outcomes)
  in
  let state_a, out_a = final closure and state_b, out_b = final lowered in
  Alcotest.(check bool) (name ^ " same outcomes") true (out_a = out_b);
  Alcotest.(check bool) (name ^ " same final state") true (state_a = state_b);
  (* Same ctx call sequence ⇒ bit-identical deterministic BOHM run. *)
  let stats txns =
    let s = Runner.run_sim (Runner.bohm_at 6) { Runner.tables; init } txns in
    (s.Stats.committed, s.Stats.logic_aborts, s.Stats.cc_aborts, s.Stats.elapsed)
  in
  Alcotest.(check bool) (name ^ " same BOHM sim stats") true
    (stats closure = stats lowered)

let test_ycsb_twin () =
  let profile = Ycsb.mixed_profile ~rmws:2 ~reads:3 in
  check_twin_equivalence "ycsb"
    ~tables:(Ycsb.tables ~rows:40 ~record_bytes:8)
    ~init:Ycsb.initial_value
    (Ycsb.generate ~rows:40 ~theta:0.9 ~count:150 ~seed:11 profile)
    (Ycsb_ir.lower_all (Ycsb_ir.generate ~rows:40 ~theta:0.9 ~count:150 ~seed:11 profile))

let test_ycsb_mix_twin () =
  let mk gen lower =
    gen ~rows:120 ~read_only_fraction:0.25 ~scan:30
      ~update_profile:(Ycsb.rmw_profile 4) ~theta:0.5 ~count:120 ~seed:2
    |> lower
  in
  check_twin_equivalence "ycsb-mix"
    ~tables:(Ycsb.tables ~rows:120 ~record_bytes:8)
    ~init:Ycsb.initial_value
    (mk Ycsb.generate_mix Fun.id)
    (mk Ycsb_ir.generate_mix Ycsb_ir.lower_all)

let test_smallbank_twin () =
  check_twin_equivalence "smallbank"
    ~tables:(Smallbank.tables ~customers:10)
    ~init:Smallbank.initial_value
    (Smallbank.generate ~customers:10 ~count:200 ~seed:13 ~spin:25 ())
    (Smallbank_ir.lower_all
       (Smallbank_ir.generate ~customers:10 ~count:200 ~seed:13 ~spin:25 ()))

let test_smallbank_kind_twin () =
  (* Per-kind generators line up too (exercises every procedure,
     including the Amalgamate partner-rejection draws). *)
  List.iter
    (fun kind ->
      let closure =
        Smallbank.generate_kind ~customers:6 ~count:40 ~seed:21 ~spin:5 kind
      in
      let lowered =
        Smallbank_ir.lower_all
          (Smallbank_ir.generate_kind ~customers:6 ~count:40 ~seed:21 ~spin:5 kind)
      in
      Array.iteri
        (fun i t ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s #%d footprint" (Smallbank.kind_name kind) i)
            (rows_of (Txn.footprint t))
            (rows_of (Txn.footprint lowered.(i))))
        closure)
    [
      Smallbank.Balance;
      Smallbank.DepositChecking;
      Smallbank.TransactSavings;
      Smallbank.Amalgamate;
      Smallbank.WriteCheck;
    ]

(* --- Conflict graph: hand-built batches --- *)

let fp id reads writes =
  {
    Conflict_graph.id;
    reads = Array.of_list (List.map k reads);
    writes = Array.of_list (List.map k writes);
  }

let edge = Alcotest.(triple int int string)

let edges_str g =
  List.map
    (fun (a, b, kind) ->
      (a, b, match kind with `Ww -> "ww" | `Wr -> "wr" | `Rw -> "rw"))
    (Conflict_graph.edges g)

let test_graph_hand_batch () =
  (* t1 writes a; t2 reads a, writes b; t3 reads a and b; t4 writes a. *)
  let g =
    Conflict_graph.of_footprints
      [|
        fp 1 [] [ 0 ]; fp 2 [ 0 ] [ 1 ]; fp 3 [ 0; 1 ] []; fp 4 [] [ 0 ];
      |]
  in
  Alcotest.(check (list edge)) "edges"
    [
      (1, 2, "wr");
      (1, 3, "wr");
      (1, 4, "ww");
      (2, 3, "wr");
      (2, 4, "rw");
      (3, 4, "rw");
    ]
    (edges_str g);
  let ww, wr, rw = Conflict_graph.edge_counts g in
  Alcotest.(check (triple int int int)) "counts" (1, 3, 2) (ww, wr, rw);
  Alcotest.(check int) "critical path 1-2-3-4" 4 (Conflict_graph.critical_path g);
  Alcotest.(check int) "max degree" 3 (Conflict_graph.degree_max g);
  let load = Conflict_graph.partition_load g ~partitions:3 in
  Alcotest.(check int) "3 write-set entries placed" 3
    (Array.fold_left ( + ) 0 load)

let test_graph_rmw_is_writer () =
  (* A key in both sets makes the transaction a writer: ww edge to its
     predecessor, no self wr/rw. *)
  let g =
    Conflict_graph.of_footprints [| fp 1 [] [ 0 ]; fp 2 [ 0 ] [ 0 ] |]
  in
  Alcotest.(check (list edge)) "single ww edge" [ (1, 2, "ww") ] (edges_str g)

let test_graph_initial_version_silent () =
  (* Readers and the first writer of a key take no edge from the
     bulk-load version. *)
  let g = Conflict_graph.of_footprints [| fp 1 [ 0 ] []; fp 2 [] [ 0 ] |] in
  Alcotest.(check (list edge)) "reader precedes writer" [ (1, 2, "rw") ]
    (edges_str g);
  Alcotest.(check int) "independent txns" 1
    (Conflict_graph.critical_path
       (Conflict_graph.of_footprints [| fp 1 [ 0 ] []; fp 2 [ 1 ] [] |]))

let test_graph_diff () =
  let g = Conflict_graph.of_footprints [| fp 1 [] [ 0 ]; fp 2 [ 0 ] [] |] in
  let so, oo = Conflict_graph.diff g ~observed:[ (1, 2, `Wr) ] in
  Alcotest.(check bool) "agree" true (so = [] && oo = []);
  let so, oo = Conflict_graph.diff g ~observed:[ (2, 1, `Ww) ] in
  Alcotest.(check int) "static-only" 1 (List.length so);
  Alcotest.(check int) "observed-only" 1 (List.length oo)

(* --- Cross-validation: static graph = observed graph on BOHM runs --- *)

let bohm_final_read txns ~rows =
  Sim.run (fun () ->
      let db =
        Bohm.create
          (Bohm_core.Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:8 ())
          ~tables:[| Table.make ~tid:0 ~name:"t" ~rows ~record_bytes:8 |]
          Check.initial_value
      in
      ignore (Bohm.run db txns);
      Bohm.read_latest db)

let test_static_graph_matches_observed () =
  List.iter
    (fun seed ->
      let w =
        Check.make_workload ~rows:12 ~txns:48 ~rmws_per_txn:2 ~reads_per_txn:2
          ~seed
      in
      let final_read = bohm_final_read (Check.txns w) ~rows:12 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d serializable" seed)
        "serializable"
        (Check.verdict_to_string (Check.check w ~final_read));
      match Check.observed_graph w ~final_read with
      | Error msg -> Alcotest.failf "seed %d: observed graph corrupt: %s" seed msg
      | Ok observed ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d has edges" seed)
            true
            (List.length observed > 0);
          let static_only, observed_only =
            Conflict_graph.diff (Conflict_graph.of_txns (Check.txns w)) ~observed
          in
          Alcotest.(check (pair (list edge) (list edge)))
            (Printf.sprintf "seed %d agrees edge-for-edge" seed)
            ([], [])
            ( List.map (fun (a, b, kind) -> (a, b, match kind with `Ww -> "ww" | `Wr -> "wr" | `Rw -> "rw")) static_only,
              List.map (fun (a, b, kind) -> (a, b, match kind with `Ww -> "ww" | `Wr -> "wr" | `Rw -> "rw")) observed_only ))
    [ 1; 2; 7; 19 ]

let test_observed_graph_labels () =
  (* Drive the real checker machinery through a deterministic BOHM run
     and assert the labels partition the edge set. *)
  let w =
    Check.make_workload ~rows:6 ~txns:24 ~rmws_per_txn:2 ~reads_per_txn:1 ~seed:3
  in
  let final_read = bohm_final_read (Check.txns w) ~rows:6 in
  match Check.observed_graph w ~final_read with
  | Error msg -> Alcotest.failf "corrupt: %s" msg
  | Ok observed ->
      let count kind =
        List.length (List.filter (fun (_, _, kind') -> kind' = kind) observed)
      in
      Alcotest.(check bool) "ww edges present" true (count `Ww > 0);
      Alcotest.(check int) "labels partition the edges"
        (List.length observed)
        (count `Ww + count `Wr + count `Rw)

let suite =
  [
    ( "tir",
      [
        Alcotest.test_case "validation" `Quick test_tir_validation;
        Alcotest.test_case "lowering semantics" `Quick test_tir_lowering_semantics;
        Alcotest.test_case "key arithmetic" `Quick test_tir_key_arithmetic;
      ] );
    ( "absint",
      [
        Alcotest.test_case "straight line exact" `Quick test_absint_straight_line_exact;
        Alcotest.test_case "may-only write" `Quick test_absint_may_only_write;
        Alcotest.test_case "must-write both branches" `Quick
          test_absint_must_write_both_branches;
        Alcotest.test_case "param-decided branch" `Quick test_absint_param_decided_branch;
        Alcotest.test_case "abort truncates must" `Quick test_absint_abort_truncates_must;
      ] );
    ( "certify",
      [
        Alcotest.test_case "derive = hand declarations" `Quick
          test_certify_derive_matches_hand_declarations;
        Alcotest.test_case "mutant: underdeclared read" `Quick
          test_certify_mutant_underdeclared_read;
        Alcotest.test_case "mutant: invisible to shim" `Quick
          test_certify_mutant_invisible_to_dynamic_shim;
        Alcotest.test_case "overdeclared is legal" `Quick
          test_certify_overdeclared_is_legal;
      ] );
    ("soundness", List.map QCheck_alcotest.to_alcotest [ soundness_qcheck ]);
    ( "twins",
      [
        Alcotest.test_case "ycsb" `Quick test_ycsb_twin;
        Alcotest.test_case "ycsb mix" `Quick test_ycsb_mix_twin;
        Alcotest.test_case "smallbank" `Quick test_smallbank_twin;
        Alcotest.test_case "smallbank per-kind" `Quick test_smallbank_kind_twin;
      ] );
    ( "conflict graph",
      [
        Alcotest.test_case "hand batch" `Quick test_graph_hand_batch;
        Alcotest.test_case "rmw is writer" `Quick test_graph_rmw_is_writer;
        Alcotest.test_case "initial version silent" `Quick
          test_graph_initial_version_silent;
        Alcotest.test_case "diff" `Quick test_graph_diff;
      ] );
    ( "cross-validation",
      [
        Alcotest.test_case "static = observed (BOHM)" `Quick
          test_static_graph_matches_observed;
        Alcotest.test_case "observed labels" `Quick test_observed_graph_labels;
      ] );
  ]

let () = Alcotest.run "bohm_analysis_static" suite

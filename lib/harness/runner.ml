module Stats = Bohm_txn.Stats
module Sim = Bohm_runtime.Sim
module Report = Bohm_analysis.Report
module Config = Bohm_core.Config

module Bohm_sim = Bohm_core.Engine.Make (Sim)
module Hek_sim = Bohm_hekaton.Engine.Make (Sim)
module Mvto_sim = Bohm_mvto.Engine.Make (Sim)
module Silo_sim = Bohm_silo.Engine.Make (Sim)
module Twopl_sim = Bohm_twopl.Engine.Make (Sim)

type engine =
  | Bohm of Config.t
  | Hekaton of int
  | Si of int
  | Occ of int
  | Twopl of int
  | Mvto of int

let name = function
  | Bohm _ -> "Bohm"
  | Hekaton _ -> "Hekaton"
  | Si _ -> "SI"
  | Occ _ -> "OCC"
  | Twopl _ -> "2PL"
  | Mvto _ -> "MVTO"

let split ?(cc_fraction = 0.25) threads =
  if threads <= 0 then invalid_arg "Runner.split: threads must be positive";
  let cc = max 1 (int_of_float (Float.round (float_of_int threads *. cc_fraction))) in
  let cc = min cc (max 1 (threads - 1)) in
  let exec = max 1 (threads - cc) in
  (cc, exec)

let bohm_at threads =
  let cc, exec = split threads in
  Bohm (Config.make ~cc_threads:cc ~exec_threads:exec ())

(* The paper's five measured engines; MVTO is the extra §2.2 strawman and
   stays out of the figure drivers. *)
let all threads =
  [ Twopl threads; bohm_at threads; Occ threads; Si threads; Hekaton threads ]

type spec = {
  tables : Bohm_storage.Table.t array;
  init : Bohm_txn.Key.t -> Bohm_txn.Value.t;
}

let ycsb_spec ~rows ~record_bytes =
  {
    tables = Bohm_workload.Ycsb.tables ~rows ~record_bytes;
    init = Bohm_workload.Ycsb.initial_value;
  }

let smallbank_spec ~customers =
  {
    tables = Bohm_workload.Smallbank.tables ~customers;
    init = Bohm_workload.Smallbank.initial_value;
  }

(* One simulated run. With [recorder], every engine emits into it for the
   run and BOHM runs [Config.observed]. When [report] is given, the engine's
   post-quiescence chain audit runs inside the simulation after [run]
   returns (and after the stats are taken) — with [report] absent the
   simulation is instruction-for-instruction the unsanitized one. *)
let run ?report ?recorder engine spec txns =
  (match engine with
  | Bohm _ -> ()
  | Hekaton n | Si n | Occ n | Twopl n | Mvto n ->
      if n <= 0 then invalid_arg "Runner.run_sim: threads must be positive");
  let session create run check_chains () =
    let db = create ~tables:spec.tables spec.init in
    let stats = run db txns in
    (match report with None -> () | Some r -> check_chains db r);
    stats
  in
  let hekaton mode n =
    session (Hek_sim.create ~mode ~workers:n) Hek_sim.run
      Hek_sim.check_chains
  in
  let body =
    match engine with
    | Bohm c ->
        let c = if Option.is_none recorder then c else Config.observed c in
        session (Bohm_sim.create c) Bohm_sim.run Bohm_sim.check_chains
    | Hekaton n -> hekaton Bohm_hekaton.Engine.Hekaton n
    | Si n -> hekaton Bohm_hekaton.Engine.Snapshot n
    | Occ n ->
        session (Silo_sim.create ~workers:n) Silo_sim.run
          Silo_sim.check_chains
    | Twopl n ->
        session (Twopl_sim.create ~workers:n) Twopl_sim.run
          Twopl_sim.check_chains
    | Mvto n ->
        session (Mvto_sim.create ~workers:n) Mvto_sim.run
          Mvto_sim.check_chains
  in
  match recorder with
  | None -> Sim.run body
  | Some r -> Bohm_obs.Recorder.with_recorder r (fun () -> Sim.run body)

let run_sim engine spec txns = run engine spec txns

let run_sim_obs engine spec txns =
  let recorder = Bohm_obs.Recorder.create () in
  let stats = run ~recorder engine spec txns in
  (stats, recorder)

let run_sim_sanitized ?recorder engine spec txns =
  let report = Report.create () in
  (* All three checkers at once: the footprint shim wraps every
     transaction's logic, the race detector traces the whole simulation,
     and the chain audit runs at quiescence inside it. *)
  let txns = Bohm_analysis.Footprint.wrap_all report txns in
  let stats =
    Bohm_analysis.Race.with_tracing report (fun () ->
        run ~report ?recorder engine spec txns)
  in
  (stats, report)

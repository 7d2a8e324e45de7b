module Stats = Bohm_txn.Stats
module Sim = Bohm_runtime.Sim
module Report = Bohm_analysis.Report

module Bohm_sim = Bohm_core.Engine.Make (Sim)
module Hek_sim = Bohm_hekaton.Engine.Make (Sim)
module Mvto_sim = Bohm_mvto.Engine.Make (Sim)
module Silo_sim = Bohm_silo.Engine.Make (Sim)
module Twopl_sim = Bohm_twopl.Engine.Make (Sim)

type engine = Bohm | Hekaton | Si | Occ | Twopl | Mvto

(* The paper's five measured engines; MVTO is the extra §2.2 strawman and
   stays out of the figure drivers. *)
let all = [ Twopl; Bohm; Occ; Si; Hekaton ]

let name = function
  | Bohm -> "Bohm"
  | Hekaton -> "Hekaton"
  | Si -> "SI"
  | Occ -> "OCC"
  | Twopl -> "2PL"
  | Mvto -> "MVTO"

type spec = {
  tables : Bohm_storage.Table.t array;
  init : Bohm_txn.Key.t -> Bohm_txn.Value.t;
}

type bohm_opts = {
  cc_fraction : float;
  batch_size : int;
  shards : int;
  gc : bool;
  read_annotation : bool;
  preprocess : bool;
  cc_rebalance : bool;
  obs : bool;
}

let default_bohm_opts =
  {
    cc_fraction = 0.25;
    batch_size = 1000;
    shards = 1;
    gc = true;
    read_annotation = true;
    preprocess = false;
    cc_rebalance = true;
    obs = false;
  }

let split_threads opts threads =
  let cc = max 1 (int_of_float (Float.round (float_of_int threads *. opts.cc_fraction))) in
  let cc = min cc (max 1 (threads - 1)) in
  let exec = max 1 (threads - cc) in
  (cc, exec)

let run_bohm_sim ~cc ~exec ?(batch = 1000) ?(shards = 1) ?(gc = true)
    ?(annotate = true) ?(preprocess = false) ?(cc_rebalance = true) spec txns =
  Sim.run (fun () ->
      let config =
        Bohm_core.Config.make ~cc_threads:cc ~exec_threads:exec ~batch_size:batch
          ~shards ~gc ~read_annotation:annotate ~preprocess ~cc_rebalance ()
      in
      let db = Bohm_sim.create config ~tables:spec.tables spec.init in
      Bohm_sim.run db txns)

(* One simulated run. When [report] is given, the engine's post-quiescence
   chain audit runs inside the simulation after [run] returns (and after
   the stats are taken) — with [report] absent the simulation is
   instruction-for-instruction the unsanitized one. *)
let run_engine ?report ~bohm engine ~threads spec txns =
  if threads <= 0 then invalid_arg "Runner.run_sim: threads must be positive";
  let check chains db stats =
    (match report with None -> () | Some r -> chains db r);
    stats
  in
  match engine with
  | Bohm ->
      let cc, exec = split_threads bohm threads in
      Sim.run (fun () ->
          let config =
            Bohm_core.Config.make ~cc_threads:cc ~exec_threads:exec
              ~batch_size:bohm.batch_size ~shards:bohm.shards ~gc:bohm.gc
              ~read_annotation:bohm.read_annotation ~preprocess:bohm.preprocess
              ~cc_rebalance:bohm.cc_rebalance ~obs:bohm.obs ()
          in
          let db = Bohm_sim.create config ~tables:spec.tables spec.init in
          check Bohm_sim.check_chains db (Bohm_sim.run db txns))
  | Hekaton ->
      Sim.run (fun () ->
          let db =
            Hek_sim.create ~mode:Bohm_hekaton.Engine.Hekaton ~workers:threads
              ~tables:spec.tables spec.init
          in
          check Hek_sim.check_chains db (Hek_sim.run db txns))
  | Si ->
      Sim.run (fun () ->
          let db =
            Hek_sim.create ~mode:Bohm_hekaton.Engine.Snapshot ~workers:threads
              ~tables:spec.tables spec.init
          in
          check Hek_sim.check_chains db (Hek_sim.run db txns))
  | Occ ->
      Sim.run (fun () ->
          let db = Silo_sim.create ~workers:threads ~tables:spec.tables spec.init in
          check Silo_sim.check_chains db (Silo_sim.run db txns))
  | Twopl ->
      Sim.run (fun () ->
          let db = Twopl_sim.create ~workers:threads ~tables:spec.tables spec.init in
          check Twopl_sim.check_chains db (Twopl_sim.run db txns))
  | Mvto ->
      Sim.run (fun () ->
          let db = Mvto_sim.create ~workers:threads ~tables:spec.tables spec.init in
          check Mvto_sim.check_chains db (Mvto_sim.run db txns))

let run_sim ?(bohm = default_bohm_opts) engine ~threads spec txns =
  run_engine ~bohm engine ~threads spec txns

let run_sim_obs ?(bohm = default_bohm_opts) engine ~threads spec txns =
  let recorder = Bohm_obs.Recorder.create () in
  let bohm = { bohm with obs = true } in
  let stats =
    Bohm_obs.Recorder.with_recorder recorder (fun () ->
        run_engine ~bohm engine ~threads spec txns)
  in
  (stats, recorder)

let run_sim_sanitized ?(bohm = default_bohm_opts) engine ~threads spec txns =
  let report = Report.create () in
  (* All three checkers at once: the footprint shim wraps every
     transaction's logic, the race detector traces the whole simulation,
     and the chain audit runs at quiescence inside it. *)
  let txns = Bohm_analysis.Footprint.wrap_all report txns in
  let stats =
    Bohm_analysis.Race.with_tracing report (fun () ->
        run_engine ~report ~bohm engine ~threads spec txns)
  in
  (stats, report)

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

module Config = Bohm_core.Config

let split ?(cc_fraction = 0.25) threads =
  let cc = max 1 (int_of_float (Float.round (float_of_int threads *. cc_fraction))) in
  let cc = min cc (max 1 (threads - 1)) in
  let exec = max 1 (threads - cc) in
  (cc, exec)

(* The caller's config with observation on — the one place a run's [obs]
   is set; [Config.t] is private, so this rebuilds it field by field. *)
let observed (c : Config.t) =
  Config.make ~cc_threads:c.cc_threads ~exec_threads:c.exec_threads
    ~batch_size:c.batch_size ~shards:c.shards ~gc:c.gc
    ~read_annotation:c.read_annotation ~preprocess:c.preprocess
    ~cc_rebalance:c.cc_rebalance ~obs:true ()

(* One simulated run. BOHM runs [bohm], by default the default config
   at [split threads]. With [recorder], every engine emits into it for the
   run and BOHM runs [observed]. When [report] is given, the engine's
   post-quiescence chain audit runs inside the simulation after [run]
   returns (and after the stats are taken) — with [report] absent the
   simulation is instruction-for-instruction the unsanitized one. *)
let run ?report ?recorder ?bohm engine ~threads spec txns =
  if threads <= 0 then invalid_arg "Runner.run_sim: threads must be positive";
  let bohm =
    match bohm with
    | Some c -> c
    | None ->
        let cc, exec = split threads in
        Config.make ~cc_threads:cc ~exec_threads:exec ()
  in
  let check chains db stats =
    (match report with None -> () | Some r -> chains db r);
    stats
  in
  let go bohm () =
    match engine with
    | Bohm ->
        Sim.run (fun () ->
            let db = Bohm_sim.create bohm ~tables:spec.tables spec.init in
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
  in
  match recorder with
  | None -> go bohm ()
  | Some r -> Bohm_obs.Recorder.with_recorder r (go (observed bohm))

let run_sim ?bohm engine ~threads spec txns =
  run ?bohm engine ~threads spec txns

let run_sim_obs ?bohm engine ~threads spec txns =
  let recorder = Bohm_obs.Recorder.create () in
  let stats = run ~recorder ?bohm engine ~threads spec txns in
  (stats, recorder)

let run_sim_sanitized ?recorder ?bohm engine ~threads spec txns =
  let report = Report.create () in
  (* All three checkers at once: the footprint shim wraps every
     transaction's logic, the race detector traces the whole simulation,
     and the chain audit runs at quiescence inside it. *)
  let txns = Bohm_analysis.Footprint.wrap_all report txns in
  let stats =
    Bohm_analysis.Race.with_tracing report (fun () ->
        run ~report ?recorder ?bohm engine ~threads spec txns)
  in
  (stats, report)

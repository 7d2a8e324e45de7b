(** Uniform driver over the six engines, instantiated on the simulator.

    A run is described by one {!engine} value that carries everything the
    engine reads: BOHM its {!Bohm_core.Config.t} (whose
    [cc_threads]/[exec_threads] are its cores, per shard), each baseline
    its worker count. When engines are compared at an equal thread count,
    as the paper does, BOHM's cores are divided by {!split} — the one BOHM
    parameter the harness owns — through {!bohm_at}. *)

type engine =
  | Bohm of Bohm_core.Config.t
  | Hekaton of int
  | Si of int
  | Occ of int
  | Twopl of int
  | Mvto of int

val name : engine -> string

val split : ?cc_fraction:float -> int -> int * int
(** [split threads] is BOHM's [(cc_threads, exec_threads)] at [threads]
    total cores: [round (threads *. cc_fraction)] CC threads (default
    fraction 0.25), clamped to leave at least one thread on each side,
    and the rest execution. Below two threads both sides get one. Raises
    [Invalid_argument] unless [threads > 0]. *)

val bohm_at : int -> engine
(** BOHM at an equal thread count: the default config at [split threads]. *)

val all : int -> engine list
(** The paper's five measured engines at [threads] cores each, in its
    legend order: 2PL, BOHM ({!bohm_at}), OCC, SI, Hekaton. [Mvto] is the
    extra §2.2 strawman and is excluded — the figure drivers iterate
    [all], and the paper does not measure MVTO. *)

type spec = {
  tables : Bohm_storage.Table.t array;
  init : Bohm_txn.Key.t -> Bohm_txn.Value.t;
}

val ycsb_spec : rows:int -> record_bytes:int -> spec
(** The YCSB table of [rows] records and its initial values. *)

val smallbank_spec : customers:int -> spec
(** SmallBank's tables for [customers] and their initial balances. *)

val run_sim : engine -> spec -> Bohm_txn.Txn.t array -> Bohm_txn.Stats.t
(** One complete simulated run: fresh database, all transactions, stats.
    Deterministic. Raises [Invalid_argument] on a baseline with fewer
    than one worker. *)

val run_sim_obs :
  engine ->
  spec ->
  Bohm_txn.Txn.t array ->
  Bohm_txn.Stats.t * Bohm_obs.Recorder.t
(** {!run_sim} with the observability layer on: installs a fresh
    {!Bohm_obs.Recorder} for the duration of the run and turns BOHM's
    [obs] on whatever its config says, so every engine emits phase spans,
    instant events and per-transaction latency histograms. Returns the
    stats — whose [latency] field is now populated — together with the
    recorder holding the per-thread tracks, ready for {!Bohm_obs.Chrome}
    export. The simulated schedule, virtual clock and stats are identical
    to the unobserved run: recording is host-side and reads only the
    uncharged [now_ns] clock. *)

val run_sim_sanitized :
  ?recorder:Bohm_obs.Recorder.t ->
  engine ->
  spec ->
  Bohm_txn.Txn.t array ->
  Bohm_txn.Stats.t * Bohm_analysis.Report.t
(** {!run_sim} with the full sanitizer suite enabled: every transaction's
    logic runs under the {!Bohm_analysis.Footprint} shim, the whole
    simulation is traced by the {!Bohm_analysis.Race} detector, and the
    engine's version-chain audit runs at quiescence. The simulated
    execution — schedule, virtual clock, stats — is identical to the
    unsanitized run: the checkers only observe, they never charge. With
    [recorder] the run is also observed into it, as by {!run_sim_obs}. *)

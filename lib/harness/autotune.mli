(** Thread-allocation tuning for BOHM's two stages (paper §4.1).

    "The choice of the optimal division of threads between the concurrency
    control and execution layers is non-trivial" — the paper proposes
    SEDA-style dynamic allocation. This module implements the controller
    as probe-based search: run a short prefix of the workload at candidate
    CC/execution splits, measure throughput, and refine around the best
    split. Deterministic (simulator probes). *)

type result = {
  cc_threads : int;
  exec_threads : int;
  throughput : float;  (** Of the winning probe. *)
  samples : (int * float) list;  (** (cc_threads, throughput) tried, in order. *)
}

val search :
  ?probe_txns:int ->
  threads:int ->
  Runner.spec ->
  Bohm_txn.Txn.t array ->
  result
(** [search ~threads spec txns] probes splits of [threads] total threads
    on a prefix of [txns] (default 4000) — a coarse sweep followed by one
    refinement step around the winner, each probe at the default
    {!Bohm_core.Config.make} batch size. Requires [threads >= 2]. *)

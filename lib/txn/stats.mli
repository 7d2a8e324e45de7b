(** Result of one engine run over a transaction stream. All engines report
    this shape so the harness can print paper-style comparisons. *)

type t = {
  txns : int;  (** Transactions processed to completion. *)
  committed : int;
  logic_aborts : int;
      (** Aborts requested by transaction logic (business rules). These
          still "complete" the transaction. *)
  cc_aborts : int;
      (** Concurrency-control-induced aborts — validation failures and
          first-committer-wins losses in the optimistic engines, each of
          which triggers a retry of the whole transaction. Always 0 for
          BOHM and 2PL (the paper's headline property). *)
  elapsed : float;  (** Seconds of (virtual or wall) time for the run. *)
  extra : (string * float) list;
      (** Engine-specific counters and gauges (GC reclamations, chain
          steps, vote rounds, …). Every key is one typed value in
          [Bohm_obs.Metrics], whose interface documents its meaning —
          engines never build extras by hand. Normalized by {!make}: sorted by key,
          duplicate keys last-wins — so equal runs serialize
          identically regardless of thread-merge order. *)
  latency : (string * Bohm_util.Histogram.t) list;
      (** Per-phase latency distributions (keys are
          [Bohm_obs.Latency.phase_names]), merged across threads.
          Empty unless the run was observed ([Config.obs] / an
          installed [Bohm_obs.Recorder]). *)
}

val make :
  txns:int ->
  committed:int ->
  logic_aborts:int ->
  cc_aborts:int ->
  elapsed:float ->
  ?extra:(string * float) list ->
  ?latency:(string * Bohm_util.Histogram.t) list ->
  unit ->
  t

val throughput : t -> float
(** Completed transactions per second; 0 if [elapsed] is 0. *)

val abort_rate : t -> float
(** [cc_aborts / (txns + cc_aborts)] — fraction of execution attempts
    wasted on concurrency-control aborts. *)

val extra : t -> string -> float option
val latency : t -> string -> Bohm_util.Histogram.t option
val pp : Format.formatter -> t -> unit

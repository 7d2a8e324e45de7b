(** The one driver for the single-layer engines (2PL, Silo-OCC,
    Hekaton/SI, MVTO), so that a difference between them comes from the
    protocol and not from the harness around it. BOHM's two-layer
    pipeline carries a richer context of its own inside
    [lib/core/engine.ml].

    {!Make.run} owns the worker pool: round-robin striping, one recorder
    track per worker ([<track>-<i>]) when a {!Recorder} is installed,
    spawn and join, the latency merge, the per-worker outcome counts and
    metric shards, and the run's {!Bohm_txn.Stats.t}. The engine passes
    the body that runs one transaction.

    The body reports each attempt through the attempt-span protocol:
    {!Make.enter} opens the attempt's first phase span, or closes the
    current one and opens the next; {!Make.finish} closes it when the
    attempt commits or its logic aborts, and records one latency sample
    per phase ([Lock] and [Commit] as [Cc_wait], [Exec] as [Exec]);
    {!Make.conflict} closes it on a concurrency-control abort and marks
    the abort with an instant, recording no sample. A transaction run
    under {!Make.retry} also records [Dep_stall], from its first dispatch
    to the start of the attempt that completed, and measures
    [Queue_wait] to that first dispatch; one that never retries records
    no [Dep_stall]. Spans carry a nominal batch: the input index divided
    by {!Timeline.baseline_quantum}.

    Recording is host-side and reads only the uncharged [now_ns] clock,
    so an observed simulated run is schedule-identical to an unobserved
    one. *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  type t
  (** One worker, owned by its thread. *)

  type phase = Lock | Exec | Commit
  (** Span names ["lock"], ["exec"], ["commit"]. *)

  val me : t -> int
  (** The worker's index, [0 .. workers - 1]. *)

  val metrics : t -> Metrics.shard

  val run :
    workers:int ->
    track:string ->
    select:Metrics.counter list ->
    cc_aborts:Metrics.counter list ->
    (t -> Bohm_txn.Txn.t -> unit) ->
    Bohm_txn.Txn.t array ->
    Bohm_txn.Stats.t
  (** [run ~workers ~track ~select ~cc_aborts body txns] runs [body] on
      every transaction, worker [i] taking indices [i], [i + workers],
      …. The extras are the [select] counters; [cc_aborts] is the sum of
      the listed counters. *)

  val enter : t -> phase -> unit
  (** Start an attempt in [phase], or move the open attempt to [phase]. *)

  val finish : t -> Bohm_txn.Txn.outcome -> unit
  (** The attempt committed or aborted in its logic: count it, close its
      span and record its latency samples. *)

  val conflict : t -> name:string -> unit
  (** The attempt aborted for concurrency control: close its span and
      emit the [name] instant. *)

  val retry : t -> backoff:int ref -> max_backoff:int -> (unit -> bool) -> unit
  (** Run an attempt until it returns [true]. After each failed attempt,
      spin [!backoff] times on [R.relax] and double [backoff] while it is
      below [max_backoff]. The caller owns [backoff]: fresh per
      transaction, or carried across a worker's transactions. *)
end

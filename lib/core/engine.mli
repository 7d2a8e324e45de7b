(** The BOHM engine (paper §3).

    Processing is pipelined over batches by up to three thread groups
    sharing no locks:

    - {b Preprocessing threads} (when [Config.preprocess] is on, §3.2.2)
      sweep each batch ahead of the CC layer, computing per transaction
      which footprint entries each CC thread owns, resolving each
      footprint key's storage-index slot with the transaction's single
      probe, and emitting per-(batch, partition) routing buffers. Batches are published through a
      [pre_done] watermark, so preprocessing of batch [b+1] overlaps
      concurrency control of batch [b].

    - {b Concurrency-control threads} process a batch's transactions in
      timestamp order — scanning every transaction, or, with
      [preprocess], iterating only the dense per-(batch, partition)
      routing buffer preprocessing emitted, so transactions owning nothing
      in the partition are never touched. Each thread owns a hash
      partition of the key space and, for write-set keys in its
      partition, bump-allocates an uninitialized placeholder version into
      its current per-batch arena slab, invalidates the predecessor, and
      (optionally) truncates the GC'd tail of the chain, retiring drained
      slabs whole. For read-set keys
      in its partition it stamps the transaction with a reference to the
      exact version to read (the §3.2.3 read-annotation optimization). CC
      threads synchronize only at batch boundaries, through one barrier.

    - {b Execution threads} pick up batches the CC layer has finished.
      Thread [i] is responsible for transactions [i, i+k, …] of the batch
      but any thread may execute any transaction: claiming is a single CAS
      on the transaction's state (Unprocessed → Executing). A read that
      lands on a still-empty placeholder recursively drags the producing
      transaction to completion (§3.3.1); logic then re-runs — it must be a
      pure function of its reads. Logical aborts and unexercised write-set
      entries are finalized by copying the predecessor version forward, so
      every placeholder is always eventually filled and writers never
      abort.

      When a dependency cannot be resolved inline, what happens next
      depends on the width of the execution pool. Below eight threads the
      transaction goes on its thread's retry list, polled until the
      dependency completes — a hand-off could never amortize there. From
      eight threads on, the thread registers a compact waiter record on the
      unfilled version itself — publishing a shared registration signal
      first, then re-checking the data, so the race against the fill is
      decided by a per-record claim token and no wakeup is ever lost — and
      the thread that fills the version pushes one wakeup onto the parked
      thread's MPSC ready queue: one re-attempt per resolved dependency
      instead of polling.

    Reads never block writes, reads write no shared memory, there is no
    global timestamp counter, and the serialization order is exactly the
    input order.

    {b Sharding} ([Config.shards] > 1): the engine instantiates one
    complete pipeline per shard — preprocessor slice, CC partitions,
    execution pool — over one shared version store, with keys mapped to
    shards by {!Bohm_txn.Key.shard_of} above the per-shard partition
    hash; a key's chain grows only through its owning shard. Every
    shard sequences the same shared input log into the same global
    epochs; a transaction's footprint is sliced per owning shard during
    preprocessing (charging [Costs.shard_route] per routed entry of a
    multi-shard transaction), its logic runs on its home shard — the
    shard of its first footprint entry — and reads of remote-shard keys
    go through the same version protocols, cross-shard. Each batch
    commits via one deterministic round: once its pool has cleared the
    batch, every shard's voter thread publishes its readiness on a
    shared board and awaits every peer's ([Costs.shard_vote] per peer).
    Pre-declared write-sets mean no shard can refuse a batch, so the
    board carries readiness only, no coordinator exists and execution
    may run ahead of the round. Single-shard transactions pay none of
    this, and with [shards = 1] the same driver runs the paper's single
    pipeline: no vote round, no per-key shard hashing.

    The stages are separate modules, private to the library and joined
    only by the batch watermarks: [Footprint] (the per-transaction
    wrapper), [Cc], [Exec], the shard's [Rebalancer] and [Audit], over
    the records in [Types]; this module is the pipeline that builds
    them, runs preprocessing and drives a run. *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  type t

  val create :
    Config.t ->
    tables:Bohm_storage.Table.t array ->
    (Bohm_txn.Key.t -> Bohm_txn.Value.t) ->
    t
  (** Build the database: a hash-indexed store with one bulk-loaded version
      per row (timestamp 0). *)

  val run : t -> Bohm_txn.Txn.t array -> Bohm_txn.Stats.t
  (** Process the stream to completion: spawn the configured CC and
      execution threads, pipeline all batches through them, join, and
      report. The array order {e is} the serialization order. Repeated
      calls continue the timestamp sequence, so a database can be driven
      by several successive streams.

      Extra stat counters: ["gc_collected"] (versions unlinked),
      ["dep_blocks"] (execution attempts that hit an unproduced version),
      ["steals"] (executions completed by a non-responsible thread,
      found by the shared per-batch steal cursor),
      ["exec_retry_scans"] (passes over a thread's blocked list: retry-list
      sweeps below eight execution threads, busy-list polls from eight
      on), ["wakeups"] (fill-triggered wakeups pushed; 0 below eight
      execution threads), ["slabs_opened"] / ["slabs_retired"] (arena
      slabs allocated and retired whole by GC),
      ["cc_batch0_start_us"] / ["pre_complete_us"] (virtual times, in
      microseconds, at which shard 0's CC began batch 0 and its
      preprocessing finished the last batch — the pipeline-overlap
      witness; with preprocessing off, ["pre_complete_us"] is 0 and
      ["cc_batch0_start_us"] is when CC began without waiting).

      With adaptive repartitioning live ([Config.cc_rebalance] {e and}
      [preprocess]) the run additionally reports ["rebalances"]
      (partition-map epochs published), ["segs_moved"] (hash segments
      that changed owner, summed over publications),
      ["cc_imbalance_max"] / ["cc_imbalance_mean"] (per-batch measured
      occupancy max/mean ratio across CC partitions, worst and average —
      measured under the map each batch actually ran with, so an
      effective rebalancer keeps even these near 1 on a skewed
      workload), and ["cc_occ_p<j>"] (total footprint entries partition
      [j] owned over the run, summed across shards). None of these keys
      exist otherwise.

      Sharded runs ([Config.shards] > 1) additionally report
      ["cross_shard_txns"] (transactions owning keys on more than one
      shard) and ["shard_votes"] (votes published: shards × batches). *)

  val index_probes : t -> int
  (** Charged storage-index probes since the database was created
      (diagnostic, from {!Bohm_storage.Store.Make.probe_count}): a run
      adds at most one probe per distinct footprint key per
      transaction. *)

  val read_latest : t -> Bohm_txn.Key.t -> Bohm_txn.Value.t
  (** Newest produced value of a key — for post-run inspection; raises
      [Not_found] if the key does not exist. *)

  val chain_length : t -> Bohm_txn.Key.t -> int
  (** Number of versions currently linked for the key (GC observability). *)

  val check_chains : t -> Bohm_analysis.Report.t -> unit
  (** Audit every key's version chain against the {!Bohm_analysis.Chain}
      invariants: strict begin-timestamp descent, end stamp equal to the
      successor's begin (head at timestamp infinity), no unfilled
      placeholder, no dangling waiter record (a registered, unclaimed
      waiter surviving quiescence is a lost wakeup), and — for
      slab-allocated versions — the arena discipline on every prev link
      (one owning thread per chain, no link into a newer slab, bump order
      within a slab). After a run with adaptive repartitioning live the
      arena discipline is checked map-aware instead: every slab entry's
      owner must be the partition its shard's map version assigned the
      key at the entry's batch (cross-owner links are legal exactly at
      batch boundaries where the key moved). Call after {!run} returns
      (quiescence); charges nothing. *)

  val inject_lost_fill : t -> Bohm_txn.Key.t -> unit
  (** Fault injection for the sanitizer's mutation tests: clears the
      newest version's data for the key, simulating an execution thread
      that claimed the producer but never installed its write. The next
      {!check_chains} must flag it as an unfilled placeholder. Test-only:
      breaks {!read_latest} for the key's newest version by design. *)

  val inject_cross_slab_prev : t -> Bohm_txn.Key.t -> donor:Bohm_txn.Key.t -> unit
  (** Fault injection for the sanitizer's mutation tests: rewires the
      newest version of the key's prev link to the newest version of
      [donor] — with [donor] in another CC partition, a cross-arena
      pointer the bump-allocation discipline makes impossible, modelling
      a stale or miscomputed slab index. The next {!check_chains} must
      flag it as [Chain_cross_slab]. Test-only: corrupts the key's chain
      by design. *)

  val inject_dangling_waiter : t -> Bohm_txn.Key.t -> unit
  (** Fault injection for the sanitizer's mutation tests: registers a
      waiter record on the key's newest version that no filler will ever
      claim or wake — the lost wakeup the dangling-waiter chain audit
      exists to catch. The next {!check_chains} must flag it. Raises
      [Invalid_argument] if the head's waiter list is already sealed. *)

  val inject_lost_vote : t -> shard:int -> batch:int -> unit
(** Fault injection for the cross-shard checker's mutation tests: on the
      next {!run}, the shard votes to abort the batch locally but its
      vote is lost in transit — peers see it ready and commit the batch,
      so the vote log records a local abort of a committed batch, the
      disagreement {!Bohm_harness.Serialization_check} (via the caller)
      must catch. Set before {!run}; raises
      [Invalid_argument] if the shard is out of range or the batch
      negative. Test-only. *)

  val vote_log : t -> (int * int * bool) list
  (** Votes of the last sharded {!run}, one entry per (shard, batch):
      [(shard, batch, local_ready)]. BOHM's pre-declared write sets mean
      no shard can refuse a batch, so every batch commits and
      [local_ready] is [false] only under {!inject_lost_vote}. Empty for
      single-shard runs. *)

  val config : t -> Config.t
end

(** Typed metrics — the single producer of the [Stats.extra] surface
    exported under [--json].

    Every key any engine reports is one value below, a {!counter} or a
    {!gauge}, and its doc comment is the one statement of its meaning.
    Worker threads count into private {!shard}s — plain int arrays,
    single-writer, host-side only, never charged against the simulated
    clock — and the driver sums the shards into a {!sheet} at the
    end-of-run barrier, sets the run-level gauges on it, and hands
    {!to_extra} to [Stats.make]. *)

type counter
(** Counted per thread, summed across the run's shards. *)

type gauge
(** Set once per run on the sheet by the driver. *)

(** {1 BOHM pipeline, every run} *)

val gc_collected : counter
(** Versions unlinked by Condition-3 GC (CC threads). *)

val dep_blocks : counter
(** Exec attempts parked on an unfilled dependency. *)

val steals : counter
(** Exec cursor steals from a sibling's stripe. *)

val exec_retry_scans : counter
(** Retry-list rescans and busy-list polls by exec threads. *)

val wakeups : counter
(** Fill-triggered dependency wakeups delivered to exec. *)

val slabs_opened : gauge
(** Arena slabs opened by the version allocator. *)

val slabs_retired : gauge
(** Whole slabs freed at the Condition-3 watermark. *)

val cc_batch0_start_us : gauge
(** Driver time until CC could start batch 0 (pipelined preprocessing;
    0 when it is off). *)

val pre_complete_us : gauge
(** Driver time until preprocessing finished all batches (0 when it is
    off). *)

(** {1 BOHM with [shards > 1]} *)

val cross_shard_txns : gauge
(** Transactions whose footprint spans shards. *)

val shard_votes : gauge
(** Per-shard vote rounds (shards × batches). *)

(** {1 BOHM with preprocessing and [cc_rebalance]} *)

val rebalances : gauge
(** Partition maps published by the LPT repacker. *)

val segs_moved : gauge
(** Routing segments reassigned across published maps. *)

val cc_imbalance_max : gauge
(** Max over batches of the measured CC partition load imbalance. *)

val cc_imbalance_mean : gauge
(** Mean over batches of the measured CC partition load imbalance. *)

val cc_occ_p : int -> gauge
(** [cc_occ_p j] is [cc_occ_p<j>]: footprint entries CC partition [j]
    owned, summed over the batches under each batch's map. *)

(** {1 Baseline engines} *)

val counter_faa : counter
(** Fetch-and-adds on the global timestamp counter (Hekaton/SI, MVTO). *)

val version_steps : counter
(** Version-chain hops while locating a visible version (Hekaton/SI). *)

val ww_aborts : counter
(** Write-write first-writer-wins aborts (Hekaton/SI). *)

val validation_aborts : counter
(** Commit-time validation failures (Hekaton/SI). *)

val dep_aborts : counter
(** Cascaded aborts via commit dependencies (Hekaton/SI). *)

val read_validation_aborts : counter
(** OCC read-set validation failures. *)

val read_retries : counter
(** OCC inconsistent-read retries (TID re-check). *)

val locks_acquired : counter
(** 2PL locks granted. *)

val read_stamps : counter
(** MVTO reader timestamp stamps (CAS on [read_ts]). *)

val reader_induced_aborts : counter
(** MVTO writes under an already-read stamp. *)

val wait_aborts : counter
(** MVTO writes above an unsettled in-flight write. *)

(** {1 Per-thread counting} *)

type shard

val shard : unit -> shard
val incr : shard -> counter -> unit
val add : shard -> counter -> int -> unit

val total : counter -> shard list -> int
(** The counter summed over the shards. *)

(** {1 Export} *)

type sheet

val collect : select:counter list -> shard list -> sheet
(** Sum the shards; [select] declares which counters this run exports
    (a selected counter appears in {!to_extra} even at zero, an
    unselected one never). *)

val set : sheet -> gauge -> float -> unit
(** Set a run-level gauge, which exports it. *)

val seti : sheet -> gauge -> int -> unit

val to_extra : sheet -> (string * float) list
(** The selected counters, then the gauges in the order they were set.
    [Stats.make] sorts them by key. *)

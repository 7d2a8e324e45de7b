(** One shard's adaptive CC repartitioning policy: the measured
    per-segment occupancy, the hysteresis gates and the barrier-time
    decision that publishes a new {!Partition_map} epoch.

    The shard's per-batch map array [maps] starts as the static map in
    every slot. At the preprocessing barrier of batch [b], worker 0 calls
    {!measure} and then {!repack}, which writes [maps.(b + 2)]: batch
    [b + 1] is already being classified under its published map, so the
    first batch that can consume a map derived from batch [b] is
    [b + 2]. Everything here is host-side and uncharged; the caller
    charges an actual publication ([Costs.cc_rebalance]), so a run whose
    map never changes replays the static schedule bit-for-bit. *)

type t

val make : workers:int -> parts:int -> n_batches:int -> t
(** State for a shard of [parts] CC partitions swept by [workers]
    preprocessors over [n_batches] batches. *)

val occupancy : t -> batch:int -> worker:int -> int array
(** The per-segment counters preprocessor [worker] increments while it
    classifies batch [batch]; no two workers share a counter. *)

val measure : t -> Partition_map.t array -> batch:int -> int array * float option
(** Sum every worker's counters for the batch into a per-segment load,
    add it to the run's per-partition occupancy, and return it with the
    batch's measured max/mean imbalance under the map it ran with
    ([None] when the batch owned no footprint entry). Call once per
    batch, after the barrier that completes the counters. *)

val repack : t -> Partition_map.t array -> batch:int -> load:int array -> bool
(** Decide the map of batch [batch + 2] from [load] (the batch's
    {!measure}): a greedy repack of the previous slot's map when every
    hysteresis gate passes (at least 4 samples per segment, imbalance
    above 1.25, a predicted max-load gain of 5%), else that map kept.
    [true] iff a new epoch was published; [false] also when batch
    [batch + 2] does not exist. *)

val metrics : Bohm_obs.Metrics.sheet -> t list -> unit
(** Run-level gauges of every shard's rebalancer: ["rebalances"],
    ["segs_moved"], ["cc_imbalance_max"], ["cc_imbalance_mean"] and
    ["cc_occ_p<j>"] summed across shards. A no-op on [[]] (rebalancing
    off), so no key exists then. *)

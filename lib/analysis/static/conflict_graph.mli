(** Whole-batch conflict-graph analysis from footprints alone, before
    execution.

    BOHM's serialization order {e is} the batch order (timestamps are
    input-log positions), so the direct serialization graph of Adya et
    al. (paper §2.2) that any run must realize is computable statically:
    for each key, order the writers by batch position and place each
    reader against the last writer before it —

    - ww: consecutive writers [w_k -> w_k+1];
    - wr: last writer before a reader [w -> r];
    - rw: reader [r -> w'] for the first writer after [r] (the
      anti-dependency on the version [r] reads).

    A transaction with the key in both sets is a writer (its read of the
    predecessor version is the ww edge). Edges from the initial bulk-load
    version and self-edges are dropped, mirroring
    [Serialization_check]'s observed-graph construction, against which
    the static graph is cross-validated edge-for-edge post-run.

    All edges point from earlier to later batch positions, so the graph
    is a DAG; {!critical_path} is its longest dependency chain — the
    execution layer cannot finish the batch in fewer dependent steps.
    {!partition_load} hashes the write-sets the way BOHM's CC layer does
    ([Key.hash mod partitions]), predicting per-partition placeholder
    work — the scheduling asset DGCC builds its whole design on. *)

type kind = [ `Ww | `Wr | `Rw ]

type footprint = {
  id : int;
  reads : Bohm_txn.Key.t array;
  writes : Bohm_txn.Key.t array;
}

type t

val of_footprints : footprint array -> t
(** Batch order is array order. Read/write arrays need not be sorted or
    duplicate-free; ids must be distinct. When {!diff}ing against an
    observed graph the ids must live in [Serialization_check]'s id space
    (1-based; 0 is the initial bulk-load writer). *)

val of_txns : Bohm_txn.Txn.t array -> t
(** From declared sets. *)

val of_instances : Tir.instance array -> t
(** From inferred may-sets — the pre-execution graph for IR workloads. *)

val edges : t -> (int * int * kind) list
(** Sorted, duplicate-free [(from-id, to-id, kind)]. *)

val edge_counts : t -> int * int * int  (** (ww, wr, rw). *)

val txns : t -> int

val degree_max : t -> int
(** Largest per-transaction degree (in + out, distinct edges). *)

val critical_path : t -> int
(** Transactions on the longest dependency chain (>= 1 for a non-empty
    batch; 1 means the batch is embarrassingly parallel). *)

val partition_load : t -> partitions:int -> int array
(** Write-set entries (CC placeholder inserts) owned by each of
    [partitions] partitions under the static assignment
    ([Key.hash k mod partitions]). *)

type shard_stats = {
  shard_load : int array;
      (** Write-set entries (placeholder inserts) owned by each shard
          under {!Bohm_txn.Key.shard_of}. *)
  cross_txns : int;
      (** Transactions whose footprint spans more than one shard — the
          ones whose batch needs the cross-shard vote round. *)
  cross_edges : int;
      (** Edges between transactions homed on different shards (home =
          shard of the first read-set key, else the first write-set key
          — the engine's homing rule): dependencies the per-shard
          pipelines resolve across shard boundaries. *)
  vote_fanout : float;
      (** Mean owning shards per cross-shard transaction — how many
          shards' votes each such transaction's batch decision folds; 0
          when the batch has no cross-shard transaction. *)
}

val shard_stats : t -> shards:int -> shard_stats
(** Static sharding analysis of the batch for a hypothetical (or actual)
    [Config.shards] count. *)

val shard_summary : t -> shards:int -> string
(** Multi-line human-readable report of {!shard_stats}. *)

val diff :
  t ->
  observed:(int * int * kind) list ->
  (int * int * kind) list * (int * int * kind) list
(** [(static_only, observed_only)] — both empty iff the graphs agree
    edge-for-edge. [observed] is deduplicated before comparison. *)

val summary : t -> partitions:int -> string
(** Multi-line human-readable report, including the partition load and
    its max/mean imbalance under the static assignment. *)

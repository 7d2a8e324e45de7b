(** Serializability checking from observed executions, after the
    serialization-graph formalism the paper builds on (Adya et al. [1],
    §2.2).

    The checker instruments a workload so that every committed execution
    reveals its own data-flow: each write stores the writer's transaction
    id, and every writer first {e reads} the key it overwrites, so the
    per-key version order is recoverable from the values alone. From one
    run it reconstructs the direct serialization graph —

    - ww edges: predecessor writer → writer (from each RMW's observed
      predecessor),
    - wr edges: writer → reader (from each read's observed value),
    - rw anti-dependency edges: reader → the writer that overwrote the
      version it read —

    and reports a cycle if one exists. A cyclic graph is a proof of
    non-serializability; an acyclic graph certifies the run was
    serializable. This is how the test suite validates BOHM, Hekaton,
    Silo-OCC and 2PL under randomized simulator schedules, and how it
    exhibits genuine cycles under Snapshot Isolation. *)

type workload
(** An instrumented workload plus the observation buffers its
    transactions fill in as they execute. *)

val make_workload :
  rows:int ->
  txns:int ->
  rmws_per_txn:int ->
  reads_per_txn:int ->
  seed:int ->
  workload
(** Random transactions over a single table of [rows] records (tid 0):
    [rmws_per_txn] read-modify-writes plus [reads_per_txn] pure reads,
    keys distinct within a transaction. Initial record values must be 0
    (use {!initial_value}). *)

val make_flash_workload :
  phases:int ->
  hot_keys:int ->
  hot_frac:float ->
  rows:int ->
  txns:int ->
  rmws_per_txn:int ->
  reads_per_txn:int ->
  seed:int ->
  workload
(** {!make_workload} with the key draws biased into a flash crowd
    (mirroring [Ycsb.generate_flash_crowd]): a [hot_keys]-wide window of
    consecutive rows receives [hot_frac] of the draws and jumps to a new
    region of the row space at each of [phases] phase boundaries (every
    [txns / phases] transactions) — the hot-set-migration workload for
    validating adaptive CC repartitioning end to end. [hot_frac = 1.]
    requires the window to cover a whole footprint. *)

val initial_value : Bohm_txn.Key.t -> Bohm_txn.Value.t

val txns : workload -> Bohm_txn.Txn.t array
(** Run these through an engine (exactly once). *)

type verdict =
  | Serializable
  | Cycle of int list  (** Transaction ids forming a dependency cycle. *)
  | Corrupt of string
      (** The observations are inconsistent with {e any} one-copy
          execution — e.g. a lost update (two writers observed the same
          predecessor) or a phantom value. *)

val check : workload -> final_read:(Bohm_txn.Key.t -> Bohm_txn.Value.t) -> verdict
(** Analyze the observations after the run. [final_read] is the engine's
    committed state, used to anchor each key's last writer. *)

val observed_graph :
  workload ->
  final_read:(Bohm_txn.Key.t -> Bohm_txn.Value.t) ->
  ((int * int * [ `Ww | `Wr | `Rw ]) list, string) result
(** The labeled direct serialization graph the run actually realized,
    as sorted duplicate-free [(from-id, to-id, kind)] edges — the same
    edges {!check} builds (RMW predecessors are the ww edges; pure reads
    yield wr and rw edges; edges from the initial version and self-edges
    are dropped). [Error] carries the corruption message when the
    observations fit no one-copy execution. Under an engine whose
    serialization order is the batch order (BOHM), this must agree
    edge-for-edge with the static [Conflict_graph] of the same
    transactions. *)

val check_sharded :
  workload ->
  final_read:(Bohm_txn.Key.t -> Bohm_txn.Value.t) ->
  vote_log:(int * int * bool) list ->
  verdict
(** Whole-system serializability for a sharded run: the vote-log audit,
    then {!check}. BOHM's vote round always commits (no shard can refuse
    a batch whose write sets were declared up front), so any row of the
    engine's vote log ([(shard, batch, local_ready)], from
    [Engine.vote_log]) with [local_ready = false] is a shard committing a
    batch it voted to abort (e.g. the [inject_lost_vote] fault) and is
    reported as [Corrupt]. The graph itself needs no shard split: the
    whole-system DSG is the flat one, and chain recovery checks each
    key's last writer against [final_read], whichever shard's store
    holds the key. *)

val verdict_to_string : verdict -> string

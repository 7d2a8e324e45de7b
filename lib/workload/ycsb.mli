(** YCSB-style workloads as configured in the paper (§4.2): a single table
    of fixed-size records addressed by primary key, transactions built from
    read-modify-writes and reads over keys drawn from a Zipfian
    distribution with contention knob [theta] (0 = uniform, 0.9 = the
    paper's high-contention setting).

    The paper's three transaction profiles:
    - 10RMW — ten distinct read-modify-writes ({!rmw_profile} 10);
    - 2RMW-8R — two RMWs and eight reads ({!mixed_profile});
    - long read-only — a scan of many uniformly-drawn records
      ({!read_only_profile}), used for the Figure 8 / Figure 9 mix. *)

type profile = { rmws : int; reads : int }

val rmw_profile : int -> profile
(** [rmw_profile n] = n RMWs, no plain reads. *)

val mixed_profile : rmws:int -> reads:int -> profile

val table : rows:int -> record_bytes:int -> Bohm_storage.Table.t
(** The YCSB table (tid 0). Paper settings: 1M rows of 1000 bytes for the
    main experiments, 8-byte records for the Figure 4 microbenchmark. *)

val tables : rows:int -> record_bytes:int -> Bohm_storage.Table.t array
val initial_value : Bohm_txn.Key.t -> Bohm_txn.Value.t

val update_rows :
  rows:int ->
  theta:float ->
  count:int ->
  seed:int ->
  profile ->
  (int -> int array -> 'a) ->
  'a array
(** The row draws of {!generate}: [update_rows ... build] is
    [build id rows] for each transaction [id], where [rows] holds [rmws]
    read-modify-write rows, then [reads] pure-read rows, all distinct and
    Zipfian-popular with ranks scattered across the row space. {!generate}
    and the IR port {!Ycsb_ir} both build from these draws. *)

val generate :
  rows:int ->
  theta:float ->
  count:int ->
  seed:int ->
  profile ->
  Bohm_txn.Txn.t array
(** Transactions with [rmws + reads] {e distinct} keys each (the paper:
    "each element of a transaction's read- and write-set is unique"). Each
    RMW increments the record; reads are pure. Deterministic in [seed]. *)

val generate_sharded :
  rows:int ->
  theta:float ->
  count:int ->
  seed:int ->
  shards:int ->
  cross_fraction:float ->
  profile ->
  Bohm_txn.Txn.t array
(** {!generate} for a sharded database ({!Bohm_txn.Key.shard_of}): each
    transaction draws a uniform home shard and confines its footprint to
    it — except that, with probability [cross_fraction], one other shard
    is drawn and part of the footprint (always including the last key,
    never the first) lands there, making the transaction span exactly two
    shards. The first key always stays on the home shard, so the engine
    homes the transaction there. [shards = 1] or [cross_fraction = 0]
    degenerate to per-shard-local transactions (though the key {e draws}
    differ from {!generate}'s). Deterministic in [seed]. *)

val generate_flash_crowd :
  rows:int ->
  count:int ->
  seed:int ->
  ?phases:int ->
  ?hot_keys:int ->
  ?hot_frac:float ->
  profile ->
  Bohm_txn.Txn.t array
(** Time-varying flash-crowd workload for adaptive CC repartitioning: a
    tight hot set of [hot_keys] (default 8) rows receives [hot_frac]
    (default 0.75) of all {e read} draws, and the set jumps to a new
    region of the row space at each of [phases] (default 4) phase
    boundaries (every [count / phases] transactions). RMW slots and
    remaining read draws are uniform over the whole table, so writes
    build no deep dependency chains and execution keeps its parallelism;
    footprints stay duplicate-free by rejection, so [hot_frac = 1.]
    requires [hot_keys >= reads]. Phase [p]'s hot rows are chosen by hash
    class — the first [hot_keys] rows at or after the phase base with
    [Key.hash] congruent to [p] mod 8 — so under the static
    [segment mod partitions] assignment the whole crowd lands on the
    {e single} CC partition [p mod m] whenever [m] divides 8, the
    adversarial-but-ordinary collision a load-oblivious hash cannot rule
    out: every batch runs at that one thread's pace, and each migration
    re-pins the crowd elsewhere, invalidating any one-shot manual
    placement. A load-measuring rebalancer sees m independently movable
    hot segments and spreads them evenly — the workload an
    epoch-versioned rebalancer exists for. Deterministic in [seed]. *)

val generate_read_only :
  rows:int -> scan:int -> count:int -> seed:int -> Bohm_txn.Txn.t array
(** Read-only transactions reading [scan] records chosen uniformly
    (§4.2.3: 10 000 records). Keys may repeat across draws; duplicates are
    collapsed by the transaction constructor. *)

type mix_draw =
  | Scan of int array  (** A read-only transaction's rows. *)
  | Update of int array  (** As in {!update_rows}. *)

val mix_rows :
  rows:int ->
  read_only_fraction:float ->
  scan:int ->
  update_profile:profile ->
  theta:float ->
  count:int ->
  seed:int ->
  (int -> mix_draw -> 'a) ->
  'a array
(** The row draws of {!generate_mix}, passed to [build id] as in
    {!update_rows}: each transaction is a [Scan] of [scan] uniform rows
    with probability [read_only_fraction], otherwise an [Update] drawn
    as in {!update_rows}. *)

val generate_mix :
  rows:int ->
  read_only_fraction:float ->
  scan:int ->
  update_profile:profile ->
  theta:float ->
  count:int ->
  seed:int ->
  Bohm_txn.Txn.t array
(** The Figure 8 mix: the transactions of {!mix_rows}, read-only
    transactions for [Scan] and update transactions with
    [update_profile] for [Update]. *)

val total_value : (Bohm_txn.Key.t -> Bohm_txn.Value.t) -> rows:int -> int
(** Sum of a read function over the whole table — invariant checking. *)

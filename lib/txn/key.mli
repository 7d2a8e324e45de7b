(** Record identifiers: a (table, row) pair packed into one immediate
    int, the table in the high bits. A key costs no allocation and no
    pointer: every read set, write set and footprint array holds keys
    inline.

    The total order on keys is lexicographic (table, then row); the 2PL
    engine relies on this order to acquire locks deadlock-free, exactly as
    the paper's locking baseline does (§4: "acquire locks in lexicographic
    order"). *)

type t = private int

val max_table : int
(** The largest accepted table id, [2^22 - 1]. *)

val max_row : int
(** The largest accepted row id, [2^40 - 1]. *)

val make : table:int -> row:int -> t
(** Raises [Invalid_argument] on a negative component, or on one above
    {!max_table} / {!max_row}. *)

val table : t -> int
val row : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Well-mixed (splitmix-style finalizer); used for index buckets and for
    partitioning keys across BOHM's concurrency-control threads. *)

val shard_of : shards:int -> t -> int
(** Owning shard of the key in a [shards]-way sharded system, in
    [0, shards). Layered above the CC-partition map and computed with an
    independent remix of {!hash}, so the shard and partition of a key are
    decorrelated even when the two moduli share factors. [shard_of
    ~shards:1 k = 0] for every key. Raises [Invalid_argument] if [shards]
    is not positive. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Transactions in the model BOHM requires: the {e whole} transaction is
    submitted at once as a stored procedure, and its read- and write-sets
    are declared (deducible) up front (paper §1, §3).

    Every engine in this repository consumes this same representation:
    BOHM's concurrency-control threads partition [write_set]; 2PL acquires
    the merged footprint in lexicographic order; the optimistic engines use
    the declared sets to pre-size their local read/write buffers. The logic
    runs against a {!ctx} provided by the engine, which routes reads and
    writes through that engine's version machinery. *)

type outcome =
  | Commit
  | Abort  (** Logic-requested abort (e.g. business-rule violation). *)

type ctx = {
  read : Key.t -> Value.t;
      (** Read a key. Must only be applied to keys in the declared
          [read_set] or [write_set] (read-own-write is allowed). *)
  write : Key.t -> Value.t -> unit;
      (** Write a key in the declared [write_set]. *)
  spin : int -> unit;
      (** Burn approximately this many cycles of transaction-local
          computation (SmallBank's 50 µs of work per transaction). *)
}

type t = private {
  id : int;
  read_set : Key.t array;  (** Sorted, duplicate-free. *)
  write_set : Key.t array;  (** Sorted, duplicate-free. *)
  logic : ctx -> outcome;
}

val make :
  id:int -> read_set:Key.t list -> write_set:Key.t list -> (ctx -> outcome) -> t
(** Sorts and de-duplicates both sets. A key may appear in both sets (a
    read-modify-write). *)

val with_logic : t -> (ctx -> outcome) -> t
(** Same id and declared sets, different logic — the hook shims use to
    interpose on the ctx (e.g. the [Bohm_analysis] footprint sanitizer).
    The replacement must obey the same purity contract as the
    original. *)

val reads : t -> Key.t -> bool
(** Membership in the declared read set (binary search). *)

val writes : t -> Key.t -> bool

val footprint : t -> Key.t array
(** Sorted union of the two sets — the lock footprint a pessimistic engine
    acquires. *)

val is_read_only : t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Row lifecycle}

    Inserts and deletes are version writes whose value is the
    {!Value.absent} marker (the paper's visibility argument "for inserts
    and deletes follows along similar lines", §3.3.3). The key must be in
    the declared write set; the physical slot is pre-allocated — index
    structural modifications are future work here exactly as in the paper
    (§3.3.1). These helpers work identically on every engine. *)

val exists : ctx -> Key.t -> bool
(** Whether the row currently holds a live value. *)

val insert : ctx -> Key.t -> Value.t -> unit
(** Write a live value; the inverse of {!delete}. (An upsert: inserting
    over a live row overwrites it.) *)

val delete : ctx -> Key.t -> unit
(** Mark the row absent. *)

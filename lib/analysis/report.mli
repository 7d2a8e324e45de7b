(** Sanitizer diagnostics, shared by the dynamic checkers and the static
    certifier.

    A report collects {!diag}s from the {!Footprint} shim, the {!Chain}
    scanner, the {!Race} detector and the [Bohm_analysis_static]
    certifier over one (or several) engine runs or static passes.
    Diagnostics are deduplicated with a per-entry occurrence count —
    engines legitimately re-run transaction logic after conflicts, so one
    bug would otherwise be reported once per attempt — and rendered in a
    stable line-oriented format suitable for golden output and CI logs:

    {v
sanitizer: 2 diagnostics (footprint=2 chain=0 race=0 static=0)
  footprint: undeclared-read txn 12 key 0:5 (read outside declared footprint) [x41]
  footprint: late-write txn 12 key 0:2 (write after logic returned)
    v}

    Reports are not synchronized: under the cooperative simulator all
    additions are naturally serialized, which is where sanitized runs are
    intended to execute. *)

type checker = Footprint | Chain | Race | Static

type kind =
  | Undeclared_read  (** Read of a key outside read set ∪ write set. *)
  | Undeclared_write  (** Write of a key outside the write set. *)
  | Late_write  (** Write issued after the transaction logic returned. *)
  | Chain_out_of_order
      (** Version timestamps not strictly ordered along a chain. *)
  | Chain_unfilled  (** Placeholder still without data after quiescence. *)
  | Chain_end_mismatch
      (** A version's end timestamp disagrees with its successor's begin
          timestamp (Hekaton/BOHM invalidation discipline). *)
  | Chain_dangling_lock
      (** A record/lock word still held after quiescence (Silo TID lock
          bit, 2PL lock table entry). *)
  | Chain_dangling_waiter
      (** A waiter record still registered and unclaimed on a version's
          waiter list after quiescence (BOHM fill-triggered wakeup): a
          parked transaction whose wakeup was never pushed — a lost
          wakeup. *)
  | Chain_cross_slab
      (** A slab-allocated version's prev link violates the arena
          discipline (BOHM's slab version store): it crosses into another
          CC thread's slabs, points at a {e newer} slab of its own
          thread, or runs against the bump order inside one slab — a
          stale or miscomputed slab index, i.e. arena corruption. *)
  | Data_race
      (** Conflicting cell accesses with no happens-before edge. *)
  | Static_undeclared_read
      (** The static certifier inferred a possible read of a key outside
          the declared read set ∪ write set ([Bohm_analysis_static]): the
          declaration is unsound {e before} any engine runs. *)
  | Static_undeclared_write
      (** The static certifier inferred a possible write of a key outside
          the declared write set: a placeholder BOHM's CC layer would
          never insert. *)

val kind_name : kind -> string

type diag = {
  kind : kind;
  txn : int option;
  key : Bohm_txn.Key.t option;
  detail : string;
}

type t

val create : unit -> t

val add : t -> ?txn:int -> ?key:Bohm_txn.Key.t -> kind -> string -> unit
(** Record a diagnostic; duplicates (same kind, txn, key and detail) are
    collapsed into the first entry, which keeps a per-entry occurrence
    count — a hot loop re-tripping one violation raises the count, not
    the report length. *)

val diags : t -> diag list
(** In insertion order. *)

val entries : t -> (diag * int) list
(** In insertion order, each deduplicated diagnostic with the number of
    times it was recorded ([>= 1]). *)

val occurrences : t -> int
(** Total recorded occurrences, duplicates included
    ([>= count t]). *)

val count : t -> int
val count_checker : t -> checker -> int
val count_kind : t -> kind -> int
val is_clean : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Runtime-generic synchronization primitives built only from
    {!Runtime_intf.S} cells and spin hints, mirroring what a main-memory
    database implements over raw atomics. *)

module Make (R : Runtime_intf.S) : sig
  (** Capped exponential back-off: each {!Backoff.once} spins twice as
      long as the previous one (up to the cap), so a stalled thread stops
      hammering the line — and the simulated clock — it is waiting on.
      Reusable from any retry loop; {!spin_until} is built on it. *)
  module Backoff : sig
    type t

    val create : unit -> t
    (** Fresh back-off starting at one relax per round, doubling to at
        most 256. *)

    val once : t -> unit
    (** Spin the current round's relax count, then double it (capped). *)

    val reset : t -> unit
    (** Back to one relax per round — call after making progress. *)
  end

  val spin_until : (unit -> bool) -> unit
  (** Busy-wait with capped exponential back-off until the condition holds.
      The condition is re-evaluated after each back-off round; reads inside
      it are charged normally by the simulator. *)

  (** Sense-reversing barrier: the last of [parties] arrivals releases the
      rest and flips the sense, so the same barrier is reusable across
      rounds — this is the batch-boundary coordination the BOHM paper
      amortizes over large batches (§3.2.4). *)
  module Barrier : sig
    type t

    val create : parties:int -> t
    val await : t -> unit
    val rounds : t -> int
    (** Number of completed barrier episodes; for tests and stats. *)
  end

  (** Monotonic published counter — the pipeline-stage handshake of the
      BOHM engine ([pre_done]/[cc_done] batch watermarks). Semantically
      [publish] is a plain {!Runtime_intf.S.Cell.set} and [await] a plain
      {!spin_until}, at identical simulated cost; the cell is classified
      as a synchronization location so the optional race tracer
      ({!Trace}) records the publish→observe edge that orders the plain
      (non-Cell) data published under the watermark. *)
  module Watermark : sig
    type t

    val create : int -> t
    val publish : t -> int -> unit
    val await : t -> at_least:int -> unit
    val get : t -> int
  end

  (** Treiber-style multi-producer single-consumer queue of ints — the
      BOHM execution layer's ready queues for fill-triggered wakeups.
      Producers cons an element onto the head with one CAS; the single
      consumer swaps the whole list out with one CAS and receives the
      elements in push order. Polling an empty queue costs one read. *)
  module Mpsc : sig
    type t

    val create : unit -> t

    val push : t -> int -> unit
    (** Safe from any thread. *)

    val drain : t -> int list
    (** All queued elements, oldest first; empties the queue. Single
        consumer only. *)
  end

  (** Batch-aligned vote board for the sharded BOHM engine's one-round
      deterministic commit: each party (shard) publishes a ready/abort
      flag per round (batch) through its own watermark, and peers read
      the flag after awaiting the watermark — the release/acquire edge
      orders the plain flag slot, exactly like the engine's [owned_keys]
      under [pre_done]. The communicated flag is intentionally a host
      slot; the caller charges the batch-amortized message explicitly
      (one [Costs.shard_vote] per peer read). *)
  module Votes : sig
    type t

    val create : parties:int -> rounds:int -> t
    (** A board for [parties] voters over [rounds] rounds. Raises
        [Invalid_argument] if [parties] is not positive or [rounds] is
        negative. *)

    val publish : t -> party:int -> round:int -> abort:bool -> unit
    (** Record the party's vote for the round ([abort = false] means
        ready-to-commit) and release it to peers. Rounds must be
        published in increasing order per party. *)

    val await : t -> party:int -> round:int -> bool
    (** Block until the party has published the round's vote, then return
        it ([true] = abort). *)
  end
end

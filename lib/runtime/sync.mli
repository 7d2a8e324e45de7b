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
      BOHM engine ([pre_done]/[cc_done] batch watermarks) and, one per
      shard, its cross-shard vote board (each shard publishes the batches
      it has cleared; peers await them). Semantically
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
end

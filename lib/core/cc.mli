(** BOHM's concurrency-control stage (paper §3.2). *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  module T := Types.Make(R)

  val cc_loop : T.t -> T.run -> T.shard_ctx -> T.cc_thread -> unit
  (** The body of one CC thread of a shard, over every batch of the run.
      Per batch it awaits the shard's [sh_pre_done] (with preprocessing),
      then, for each footprint entry of its partition in timestamp
      order, stamps a read entry with the version it must read (when
      read annotation is on) or inserts a write entry's placeholder into
      its arena slab and invalidates the predecessor; every 32nd insert
      truncates the chain below the GC low watermark (Condition 3, when
      GC is on). With preprocessing it iterates only the routed
      transactions and their stamped slices; without, it scans every
      transaction of the batch under the batch's partition map. The
      shard's CC threads then meet at [sh_cc_barrier] and partition 0
      publishes the batch through [sh_cc_done]. *)
end

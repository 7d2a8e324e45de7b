(** BOHM's execution stage (paper §3.3). *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  module T := Types.Make(R)

  val exec_loop : T.t -> T.run -> T.shard_ctx -> T.exec_thread -> unit
  (** The body of one execution thread of a shard, over every batch of
      the run. Per batch it awaits every shard's [sh_cc_done], then
      drives its stripe of the batch's home transactions to completion:
      reads resolve through CC's stamps (or a chain walk without read
      annotation), a read of an unfilled placeholder helps its producer,
      and a transaction still blocked goes to the thread's retry list
      ([r.queues = None]) or parks a waiter on the version until its
      fill pushes a wakeup ([Some queues]). One steal pass over the
      batch follows; then the thread publishes its progress, and thread
      0 of the pool casts the shard's vote (several shards) and, on
      shard 0, publishes the GC low watermark. *)
end

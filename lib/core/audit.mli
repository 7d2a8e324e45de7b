(** Post-run inspection of a BOHM database and the fault injections of
    the sanitizer's mutation tests. {!Engine.Make} re-exports every
    function here; its interface documents each one. *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  module T := Types.Make(R)

  val check_chains : T.t -> Bohm_analysis.Report.t -> unit
  val inject_lost_fill : T.t -> Bohm_txn.Key.t -> unit
  val inject_cross_slab_prev : T.t -> Bohm_txn.Key.t -> donor:Bohm_txn.Key.t -> unit
  val inject_dangling_waiter : T.t -> Bohm_txn.Key.t -> unit
  val inject_lost_vote : T.t -> shard:int -> batch:int -> unit
  val read_latest : T.t -> Bohm_txn.Key.t -> Bohm_txn.Value.t
  val chain_length : T.t -> Bohm_txn.Key.t -> int
end

module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Local_writes = Bohm_txn.Local_writes

(* Work charges (cycles). *)
let dispatch_work = 120
let read_resolve_work = 10

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Locks = Lock_table.Make (R)
  module Obs = Bohm_obs
  module W = Obs.Worker.Make (R)

  type t = {
    workers : int;
    store : Value.t R.Cell.t Store.t;
    locks : Locks.t;
  }

  let create ~workers ~tables init =
    if workers <= 0 then invalid_arg "Twopl: workers must be positive";
    {
      workers;
      store = Store.create_hash ~tables (fun k -> R.Cell.make (init k));
      locks = Locks.create ~tables;
    }

  let mode_for txn k = if Txn.writes txn k then Locks.Write else Locks.Read

  (* 2PL never aborts on conflicts — it waits — so lock acquisition is
     its whole concurrency-control cost: the [lock] phase, recorded as
     [Cc_wait]. One attempt per transaction, so no dependency stall. *)
  let run_one t w txn =
    let footprint = Txn.footprint txn in
    W.enter w W.Lock;
    (* Growing phase: whole footprint, ascending key order — deadlock-free
       (§4: "acquire locks in lexicographic order"). *)
    Array.iter
      (fun k ->
        Locks.acquire t.locks k (mode_for txn k);
        Obs.Metrics.incr (W.metrics w) Obs.Metrics.locks_acquired)
      footprint;
    W.enter w W.Exec;
    let buffer = Local_writes.create () in
    R.work dispatch_work;
    let ctx =
      {
        Txn.read =
          (fun k ->
            match Local_writes.find buffer k with
            | Some v -> v
            | None ->
                R.work read_resolve_work;
                R.copy ~bytes:(Store.record_bytes t.store k);
                R.Cell.get (Store.get t.store k));
        write = (fun k v -> Local_writes.set buffer k v);
        spin = R.work;
      }
    in
    let outcome = txn.Txn.logic ctx in
    (match outcome with
    | Txn.Commit ->
        Local_writes.iter buffer (fun k v ->
            (* In-place update of a line we hold locked and just read. *)
            R.work (Store.record_bytes t.store k / 16);
            R.Cell.set (Store.get t.store k) v)
    | Txn.Abort -> ());
    (* Shrinking phase. *)
    Array.iter (fun k -> Locks.release t.locks k (mode_for txn k)) footprint;
    W.finish w outcome

  let run t txns =
    W.run ~workers:t.workers ~track:"2pl"
      ~select:[ Obs.Metrics.locks_acquired ]
      ~cc_aborts:[] (run_one t) txns

  let read_latest t k = R.Cell.get (Store.get t.store k)

  (* Post-quiescence audit: single-version locking, so the invariant is
     that the shrinking phase ran to completion — every lock word back to
     zero (no reader count left, no writer bit left). *)
  let check_chains t report =
    R.without_cost (fun () ->
        Store.iter t.store (fun k _slot ->
            let h = Locks.holders t.locks k in
            if h <> 0 then
              Bohm_analysis.Report.add report ~key:k
                Bohm_analysis.Report.Chain_dangling_lock
                (Printf.sprintf "lock word %d still held after quiescence" h)))
end

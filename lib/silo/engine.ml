module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Local_writes = Bohm_txn.Local_writes

(* Work charges (cycles). *)
let dispatch_work = 120
let read_resolve_work = 10
let buffer_write_work = 20

let max_backoff = 32_768

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Obs = Bohm_obs
  module W = Obs.Worker.Make (R)

  (* The TID word: bit 0 is the lock bit, the rest is the sequence
     number. *)
  type record = { tid : int R.Cell.t; value : Value.t R.Cell.t }

  type t = { workers : int; store : record Store.t; last_seq : int array }

  exception Conflict

  (* Both record cells are racy by design — the TID word is the lock and
     validation witness, and the value is read optimistically while a
     committer may be installing (the TID re-check makes it safe) — so
     both are synchronization cells for the race tracer. *)
  let sync c =
    R.Cell.mark_sync c;
    c

  let create ~workers ~tables init =
    if workers <= 0 then invalid_arg "Silo: workers must be positive";
    {
      workers;
      store =
        Store.create_hash ~tables (fun k ->
            { tid = sync (R.Cell.make 0); value = sync (R.Cell.make (init k)) });
      last_seq = Array.make workers 0;
    }

  let locked tid = tid land 1 = 1

  (* Stable read of (value, tid): retry while the record is locked or the
     TID changes under us. Reads touch no shared-memory metadata. *)
  let rec stable_read ms r =
    let t1 = R.Cell.get r.tid in
    if locked t1 then begin
      Obs.Metrics.incr ms Obs.Metrics.read_retries;
      R.relax ();
      stable_read ms r
    end
    else begin
      let v = R.Cell.get r.value in
      let t2 = R.Cell.get r.tid in
      if t1 <> t2 then begin
        Obs.Metrics.incr ms Obs.Metrics.read_retries;
        stable_read ms r
      end
      else (v, t1)
    end

  let lock_record r =
    let rec go () =
      let t = R.Cell.get r.tid in
      if locked t || not (R.Cell.cas r.tid t (t lor 1)) then begin
        R.relax ();
        go ()
      end
      else t (* pre-lock TID, for rollback *)
    in
    go ()

  let run_attempt t w txn =
    W.enter w W.Exec;
    let reads : (record * int) list ref = ref [] in
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
                let r = Store.get t.store k in
                let v, tid = stable_read (W.metrics w) r in
                reads := (r, tid) :: !reads;
                R.copy ~bytes:(Store.record_bytes t.store k);
                v);
        write =
          (fun k v ->
            (* Buffered in a per-worker, cache-resident structure; cheap
               compared to materializing a version (§4.2.1). *)
            R.work (buffer_write_work + (Store.record_bytes t.store k / 16));
            Local_writes.set buffer k v);
        spin = R.work;
      }
    in
    match txn.Txn.logic ctx with
    | Txn.Abort ->
        W.finish w Txn.Abort;
        true
    | Txn.Commit -> (
        W.enter w W.Commit;
        (* Phase 1: lock written records in sorted key order (the declared
           write-set array is sorted; skip keys the logic never wrote). *)
        let lock_list = ref [] in
        Array.iter
          (fun k ->
            match Local_writes.find buffer k with
            | None -> ()
            | Some v ->
                let r = Store.get t.store k in
                let pre = lock_record r in
                lock_list := (k, r, v, pre) :: !lock_list)
          txn.Txn.write_set;
        let locked_by_me r = List.exists (fun (_, r', _, _) -> r' == r) !lock_list in
        (* Phase 2: validate the read set — each TID unchanged and not
           locked by another transaction. *)
        try
          List.iter
            (fun (r, tid_seen) ->
              let cur = R.Cell.get r.tid in
              if locked cur && not (locked_by_me r) then raise Conflict;
              if cur lor 1 <> tid_seen lor 1 then raise Conflict)
            !reads;
          (* Phase 3: decentralized TID, then install and unlock. *)
          let me = W.me w in
          let seq = ref t.last_seq.(me) in
          List.iter (fun (_, tid_seen) -> seq := max !seq (tid_seen asr 1)) !reads;
          List.iter (fun (_, _, _, pre) -> seq := max !seq (pre asr 1)) !lock_list;
          let commit_tid = (!seq + 1) lsl 1 in
          t.last_seq.(me) <- !seq + 1;
          List.iter
            (fun (k, r, v, _) ->
              (* In-place update of the line just read: cache-resident. *)
              R.work (Store.record_bytes t.store k / 16);
              R.Cell.set r.value v;
              R.Cell.set r.tid commit_tid)
            !lock_list;
          W.finish w Txn.Commit;
          true
        with Conflict ->
          (* Unlock by restoring each pre-lock TID. *)
          List.iter (fun (_, r, _, pre) -> R.Cell.set r.tid pre) !lock_list;
          Obs.Metrics.incr (W.metrics w) Obs.Metrics.read_validation_aborts;
          W.conflict w ~name:"validation_abort";
          false)

  let run t txns =
    (* Adaptive back-off carried across each worker's transactions:
       doubled on each conflict, cut to 3/4 once a transaction completes.
       This is Silo's pacing under write-write contention, which the
       paper credits for OCC degrading gracefully where Hekaton and SI
       collapse (§4.2.1). *)
    let backoff = Array.init t.workers (fun _ -> ref 1) in
    W.run ~workers:t.workers ~track:"occ"
      ~select:Obs.Metrics.[ read_validation_aborts; read_retries ]
      ~cc_aborts:[ Obs.Metrics.read_validation_aborts ]
      (fun w txn ->
        let b = backoff.(W.me w) in
        W.retry w ~backoff:b ~max_backoff (fun () -> run_attempt t w txn);
        if !b > 1 then b := max 1 (!b * 3 / 4))
      txns

  let read_latest t k = R.Cell.get (Store.get t.store k).value

  (* Post-quiescence audit: Silo keeps one version per record, so the
     chain invariants reduce to "no TID word still carries the lock
     bit" — a locked record after the joins is a commit that never
     finished phase 3. *)
  let check_chains t report =
    R.without_cost (fun () ->
        Store.iter t.store (fun k r ->
            let tid = R.Cell.get r.tid in
            if locked tid then
              Bohm_analysis.Report.add report ~key:k
                Bohm_analysis.Report.Chain_dangling_lock
                (Printf.sprintf "TID word %d still locked after quiescence" tid)))
end

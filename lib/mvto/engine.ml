module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Local_writes = Bohm_txn.Local_writes

let dispatch_work = 130
let read_resolve_work = 14
let max_backoff = 8192

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)
  module Obs = Bohm_obs
  module W = Obs.Worker.Make (R)

  let st_active = 0
  let st_committed = 1
  let st_aborted = 2

  type mtxn = { state : int R.Cell.t }

  type version = {
    wts : int;
    data : Value.t;
    (* Largest timestamp that has read this version — written by READERS,
       the shared-memory read tracking of §2.2. *)
    read_ts : int R.Cell.t;
    producer : mtxn option; (* None = bulk-loaded *)
    prev : version option R.Cell.t;
  }

  type record = { lock : int R.Cell.t; head : version R.Cell.t }

  type t = {
    workers : int;
    store : record Store.t;
    counter : int R.Cell.t;
  }

  exception Conflict of [ `Reader_induced | `Wait ]

  (* Writers mutate chains under the record lock, but readers walk them
     with no lock at all (Reed's protocol), stamping [read_ts] by CAS as
     they go — every cell here is racy by design, hence marked for the
     race tracer. *)
  let sync c =
    R.Cell.mark_sync c;
    c

  let create ~workers ~tables init =
    if workers <= 0 then invalid_arg "Mvto: workers must be positive";
    {
      workers;
      store =
        Store.create_hash ~tables (fun k ->
            {
              lock = sync (R.Cell.make 0);
              head =
                sync
                  (R.Cell.make
                     {
                       wts = 0;
                       data = init k;
                       read_ts = sync (R.Cell.make 0);
                       producer = None;
                       prev = sync (R.Cell.make None);
                     });
            });
      counter = sync (R.Cell.make 1);
    }

  let lock_record r =
    let rec go () =
      if R.Cell.get r.lock = 0 && R.Cell.cas r.lock 0 1 then ()
      else begin
        R.relax ();
        go ()
      end
    in
    go ()

  let unlock_record r = R.Cell.set r.lock 0

  let settled tx =
    let s = R.Cell.get tx.state in
    s = st_committed || s = st_aborted

  (* The version with the largest [wts <= ts]; the chain is sorted by
     [wts] descending. *)
  let rec version_at v ts =
    if v.wts <= ts then v
    else
      match R.Cell.get v.prev with
      | Some p -> version_at p ts
      | None -> assert false (* bulk-loaded version has wts = 0 *)

  (* Reed's read: locate, wait out an unsettled producer, stamp the
     version with our timestamp, and re-validate that no writer slipped a
     version between the one we stamped and our timestamp. *)
  let read_version t ms self ts k =
    let r = Store.get t.store k in
    let rec attempt () =
      let v = version_at (R.Cell.get r.head) ts in
      match v.producer with
      | Some tx when tx != self && not (settled tx) ->
          Sync.spin_until (fun () -> settled tx);
          attempt ()
      | Some tx when tx != self && R.Cell.get tx.state = st_aborted ->
          (* Unlink race: re-walk from the head. *)
          attempt ()
      | _ ->
          (* Stamp: the contended shared-memory write BOHM avoids. *)
          let rec bump () =
            let current = R.Cell.get v.read_ts in
            if current >= ts then ()
            else if R.Cell.cas v.read_ts current ts then
              Obs.Metrics.incr ms Obs.Metrics.read_stamps
            else bump ()
          in
          bump ();
          (* A writer below our timestamp may have inserted between our
             walk and our stamp; writers double-check after insert, so one
             of us is guaranteed to notice. *)
          let v' = version_at (R.Cell.get r.head) ts in
          if v' != v then attempt ()
          else begin
            R.copy ~bytes:(Store.record_bytes t.store k);
            v.data
          end
    in
    attempt ()

  (* Insert [value] as a version at [ts]: find the timestamp predecessor,
     abort if a later reader already consumed it, insert in timestamp
     order, then re-check the reader stamp (see [read_version]). *)
  let write_version t self ts k value writes =
    let r = Store.get t.store k in
    lock_record r;
    let unlock_and_raise e =
      unlock_record r;
      raise e
    in
    (* Find parent (last version with wts > ts) and predecessor. *)
    let rec locate parent v =
      if v.wts > ts then
        match R.Cell.get v.prev with
        | Some p -> locate (Some v) p
        | None -> assert false
      else (parent, v)
    in
    let parent, pred = locate None (R.Cell.get r.head) in
    (match pred.producer with
    | Some tx when tx != self && not (settled tx) ->
        (* Writing right above an in-flight write: wait it out to keep
           recoverability simple. *)
        unlock_and_raise (Conflict `Wait)
    | _ -> ());
    if pred.wts = ts then begin
      (* Second write of this transaction to the key: replace our own
         version. *)
      let nv =
        {
          wts = ts;
          data = value;
          read_ts = sync (R.Cell.make 0);
          producer = Some self;
          prev = sync (R.Cell.make (R.Cell.get pred.prev));
        }
      in
      (match parent with
      | None -> R.Cell.set r.head nv
      | Some p -> R.Cell.set p.prev (Some nv));
      R.copy ~bytes:(Store.record_bytes t.store k);
      unlock_record r;
      writes := (r, nv) :: List.remove_assq r !writes
    end
    else begin
      if R.Cell.get pred.read_ts > ts then
        unlock_and_raise (Conflict `Reader_induced);
      let nv =
        {
          wts = ts;
          data = value;
          read_ts = sync (R.Cell.make 0);
          producer = Some self;
          prev = sync (R.Cell.make (Some pred));
        }
      in
      (match parent with
      | None -> R.Cell.set r.head nv
      | Some p -> R.Cell.set p.prev (Some nv));
      R.copy ~bytes:(Store.record_bytes t.store k);
      (* Double-check: a reader may have stamped the predecessor between
         our check and our insert. *)
      if R.Cell.get pred.read_ts > ts then begin
        (* Undo the insert before aborting. *)
        (match parent with
        | None -> R.Cell.set r.head pred
        | Some p -> R.Cell.set p.prev (Some pred));
        unlock_and_raise (Conflict `Reader_induced)
      end;
      unlock_record r;
      writes := (r, nv) :: !writes
    end

  let unlink writes =
    List.iter
      (fun (r, nv) ->
        lock_record r;
        let rec cut parent v =
          if v == nv then
            match parent with
            | None -> (
                match R.Cell.get v.prev with
                | Some p -> R.Cell.set r.head p
                | None -> assert false)
            | Some p -> R.Cell.set p.prev (R.Cell.get v.prev)
          else
            match R.Cell.get v.prev with
            | Some p -> cut (Some v) p
            | None -> () (* already unlinked *)
        in
        cut None (R.Cell.get r.head);
        unlock_record r)
      writes

  let run_attempt t w txn =
    let ms = W.metrics w in
    W.enter w W.Exec;
    let self = { state = sync (R.Cell.make st_active) } in
    let ts = R.Cell.faa t.counter 1 in
    Obs.Metrics.incr ms Obs.Metrics.counter_faa;
    let writes = ref [] in
    let buffer = Local_writes.create () in
    try
      R.work dispatch_work;
      let ctx =
        {
          Txn.read =
            (fun k ->
              match Local_writes.find buffer k with
              | Some v -> v
              | None ->
                  R.work read_resolve_work;
                  read_version t ms self ts k);
          write =
            (fun k v ->
              Local_writes.set buffer k v;
              write_version t self ts k v writes);
          spin = R.work;
        }
      in
      match txn.Txn.logic ctx with
      | Txn.Commit ->
          R.Cell.set self.state st_committed;
          W.finish w Txn.Commit;
          true
      | Txn.Abort ->
          R.Cell.set self.state st_aborted;
          unlink !writes;
          W.finish w Txn.Abort;
          true
    with Conflict reason ->
      R.Cell.set self.state st_aborted;
      unlink !writes;
      let name =
        match reason with
        | `Reader_induced ->
            Obs.Metrics.incr ms Obs.Metrics.reader_induced_aborts;
            "reader_abort"
        | `Wait ->
            Obs.Metrics.incr ms Obs.Metrics.wait_aborts;
            "wait_abort"
      in
      W.conflict w ~name;
      false

  let run t txns =
    W.run ~workers:t.workers ~track:"mvto"
      ~select:
        Obs.Metrics.[ counter_faa; read_stamps; reader_induced_aborts; wait_aborts ]
      ~cc_aborts:Obs.Metrics.[ reader_induced_aborts; wait_aborts ]
      (fun w txn ->
        W.retry w ~backoff:(ref 1) ~max_backoff (fun () -> run_attempt t w txn))
      txns

  (* Post-quiescence audit. MVTO stamps no end times ([end_ts = None]
     skips the begin/end consistency check); a version whose producer is
     not settled-committed after the joins is an aborted or in-flight
     write left linked — surfaced through [filled]. *)
  let check_chains t report =
    R.without_cost (fun () ->
        Store.iter t.store (fun k r ->
            let rec entries v acc =
              let filled =
                match v.producer with
                | None -> true
                | Some tx -> R.Cell.get tx.state = st_committed
              in
              let e =
                Bohm_analysis.Chain.entry ~begin_ts:v.wts ~end_ts:None ~filled
                  ()
              in
              match R.Cell.get v.prev with
              | None -> List.rev (e :: acc)
              | Some p -> entries p (e :: acc)
            in
            let es = entries (R.Cell.get r.head) [] in
            if R.Cell.get r.lock <> 0 then
              Bohm_analysis.Report.add report ~key:k
                Bohm_analysis.Report.Chain_dangling_lock
                "record lock still held after quiescence";
            Bohm_analysis.Chain.check_key report k es))

  let read_latest t k =
    let rec newest v =
      match v.producer with
      | None -> v.data
      | Some tx when R.Cell.get tx.state = st_committed -> v.data
      | Some _ -> (
          match R.Cell.get v.prev with Some p -> newest p | None -> v.data)
    in
    newest (R.Cell.get (Store.get t.store k).head)

  let chain_length t k =
    let rec go v acc =
      match R.Cell.get v.prev with Some p -> go p (acc + 1) | None -> acc
    in
    go (R.Cell.get (Store.get t.store k).head) 1
end

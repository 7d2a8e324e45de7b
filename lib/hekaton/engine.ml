module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn

(* Work charges (cycles). *)
let dispatch_work = 150
let read_resolve_work = 16
let write_setup_work = 30
let validate_per_read_work = 12

let max_backoff = 4096

type mode = Hekaton | Snapshot

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)
  module Obs = Bohm_obs
  module W = Obs.Worker.Make (R)

  (* Transaction descriptor states. *)
  let st_active = 0
  let st_preparing = 1
  let st_committed = 2
  let st_aborted = 3

  type htxn = {
    state : int R.Cell.t;
    end_ts : int R.Cell.t;  (* meaningful once state >= preparing *)
    dep_count : int R.Cell.t;
    dep_failed : int R.Cell.t;
    dependents : dep_state R.Cell.t;
  }

  and dep_state = Open of htxn list | Resolved of bool

  type meta = Ts of int | Owned of htxn

  type version = {
    begin_meta : meta R.Cell.t;
    end_meta : meta R.Cell.t;
    data : Value.t;
    prev : version option;  (* immutable: these baselines never GC *)
  }

  type t = {
    mode : mode;
    workers : int;
    store : version R.Cell.t Store.t;
    (* The global timestamp counter — the contended cell. *)
    counter : int R.Cell.t;
  }

  (* One shared [Ts max_int]: physical equality makes the "end is still
     infinity" CAS cheap and exact. *)
  let ts_infinity = Ts max_int

  (* Hekaton is latch-free and optimistic throughout: every cell is read
     and CASed by concurrent workers with visibility resolved from the
     values themselves, so every cell is a synchronization cell for the
     race tracer (the CASes would promote most of them anyway; marking
     covers the plain reads that race ahead of the first RMW). *)
  let sync c =
    R.Cell.mark_sync c;
    c

  type conflict_reason = Ww | Validation | Dep
  exception Conflict of conflict_reason

  let conflict_name = function
    | Ww -> "ww_abort"
    | Validation -> "validation_abort"
    | Dep -> "dep_abort"

  type attempt = {
    self : htxn;
    begin_ts : int;
    mutable reads : (Key.t * version) list;
    (* (old version, new version, slot); cons order = write order. *)
    mutable writes : (version * version * version R.Cell.t) list;
  }

  let create ~mode ~workers ~tables init =
    if workers <= 0 then invalid_arg "Hekaton: workers must be positive";
    {
      mode;
      workers;
      store = Store.create_array ~tables (fun k -> sync (R.Cell.make
        {
          begin_meta = sync (R.Cell.make (Ts 0));
          end_meta = sync (R.Cell.make ts_infinity);
          data = init k;
          prev = None;
        }));
      counter = sync (R.Cell.make 1);
    }

  (* --- visibility --- *)

  type begin_status = Vis | Newer | Skip | Spec of htxn

  let resolve_begin self my_begin v =
    match R.Cell.get v.begin_meta with
    | Ts b -> if b <= my_begin then Vis else Newer
    | Owned tx when tx == self -> Vis
    | Owned tx ->
        let s = R.Cell.get tx.state in
        if s = st_committed then
          if R.Cell.get tx.end_ts <= my_begin then Vis else Newer
        else if s = st_aborted then Skip
        else if s = st_preparing then
          if R.Cell.get tx.end_ts <= my_begin then Spec tx else Newer
        else Newer

  (* Whether [v]'s end stamp still covers [my_begin] — i.e. no {e committed}
     overwrite at or before the snapshot. Uncommitted or aborted
     overwriters leave the version visible. *)
  let end_covers self my_begin v =
    match R.Cell.get v.end_meta with
    | Ts e -> e > my_begin
    | Owned tx when tx == self -> true
    | Owned tx ->
        not (R.Cell.get tx.state = st_committed && R.Cell.get tx.end_ts <= my_begin)

  let rec find_visible ms att v =
    match resolve_begin att.self att.begin_ts v with
    | Vis when end_covers att.self att.begin_ts v -> (v, None)
    | Spec tx -> (v, Some tx)
    | Vis | Newer | Skip -> (
        Obs.Metrics.incr ms Obs.Metrics.version_steps;
        match v.prev with
        | Some p -> find_visible ms att p
        | None -> assert false (* the bulk-loaded version is always visible *))

  (* Reader takes a commit dependency on a Preparing producer (§4.2.1,
     "commit dependencies"). *)
  let register_dependency att producer =
    R.Cell.incr att.self.dep_count;
    let rec push () =
      match R.Cell.get producer.dependents with
      | Open l as cur ->
          if not (R.Cell.cas producer.dependents cur (Open (att.self :: l)))
          then push ()
      | Resolved true ->
          (* Producer already committed and notified; undo our count. *)
          ignore (R.Cell.faa att.self.dep_count (-1))
      | Resolved false -> raise (Conflict Dep)
    in
    push ()

  let resolve_dependents self committed =
    let rec swap () =
      match R.Cell.get self.dependents with
      | Open l as cur ->
          if R.Cell.cas self.dependents cur (Resolved committed) then l
          else swap ()
      | Resolved _ -> []
    in
    List.iter
      (fun d ->
        if committed then ignore (R.Cell.faa d.dep_count (-1))
        else R.Cell.set d.dep_failed 1)
      (swap ())

  (* --- write path: first-writer-wins on the newest version --- *)

  let do_write t att k value =
    R.work write_setup_work;
    let slot = Store.get t.store k in
    let head = R.Cell.get slot in
    match resolve_begin att.self att.begin_ts head with
    | Newer | Skip | Spec _ ->
        (* A version newer than our snapshot exists (or is in flight):
           write-write conflict, first-committer-wins. *)
        raise (Conflict Ww)
    | Vis -> (
        match R.Cell.get head.end_meta with
        | Ts e as cur when e = max_int ->
            if not (R.Cell.cas head.end_meta cur (Owned att.self)) then
              raise (Conflict Ww);
            R.copy ~bytes:(Store.record_bytes t.store k);
            let nv =
              {
                begin_meta = sync (R.Cell.make (Owned att.self));
                end_meta = sync (R.Cell.make ts_infinity);
                data = value;
                prev = Some head;
              }
            in
            (* We own [head.end_meta], so only we may install the
               successor. *)
            R.Cell.set slot nv;
            att.writes <- (head, nv, slot) :: att.writes
        | Ts _ | Owned _ -> raise (Conflict Ww))

  (* --- read validation (Hekaton mode, §2.2 "Validate Reads") --- *)

  let tx_settled tx =
    let s = R.Cell.get tx.state in
    s = st_committed || s = st_aborted

  let validate att end_ts =
    List.iter
      (fun (_k, v) ->
        R.work validate_per_read_work;
        match R.Cell.get v.end_meta with
        | Ts e when e > end_ts -> ()
        | Ts _ -> raise (Conflict Validation)
        | Owned tx when tx == att.self -> ()
        | Owned tx ->
            let s = R.Cell.get tx.state in
            if s = st_aborted || s = st_active then ()
            else if s = st_committed then begin
              if R.Cell.get tx.end_ts <= end_ts then raise (Conflict Validation)
            end
            else if R.Cell.get tx.end_ts < end_ts then begin
              (* Overwriter is validating with an earlier commit stamp:
                 its outcome decides ours. *)
              Sync.spin_until (fun () -> tx_settled tx);
              if R.Cell.get tx.state = st_committed then
                raise (Conflict Validation)
            end)
      att.reads

  (* --- attempt lifecycle --- *)

  let rollback att =
    R.Cell.set att.self.state st_aborted;
    List.iter
      (fun (old_v, _nv, slot) ->
        (* Cons order means the earliest write of a key is restored last,
           leaving the pre-transaction head in place. *)
        R.Cell.set slot old_v;
        R.Cell.set old_v.end_meta ts_infinity)
      att.writes;
    resolve_dependents att.self false

  let commit t ms att =
    let end_ts = R.Cell.faa t.counter 1 in
    Obs.Metrics.incr ms Obs.Metrics.counter_faa;
    R.Cell.set att.self.end_ts end_ts;
    R.Cell.set att.self.state st_preparing;
    if t.mode = Hekaton then validate att end_ts;
    (* Wait out commit dependencies. *)
    Sync.spin_until (fun () ->
        R.Cell.get att.self.dep_count = 0 || R.Cell.get att.self.dep_failed = 1);
    if R.Cell.get att.self.dep_failed = 1 then raise (Conflict Dep);
    R.Cell.set att.self.state st_committed;
    List.iter
      (fun (old_v, nv, _slot) ->
        R.Cell.set nv.begin_meta (Ts end_ts);
        R.Cell.set old_v.end_meta (Ts end_ts))
      att.writes;
    resolve_dependents att.self true

  let run_attempt t w txn =
    let ms = W.metrics w in
    let self =
      {
        state = sync (R.Cell.make st_active);
        end_ts = sync (R.Cell.make 0);
        dep_count = sync (R.Cell.make 0);
        dep_failed = sync (R.Cell.make 0);
        dependents = sync (R.Cell.make (Open []));
      }
    in
    let begin_ts = R.Cell.faa t.counter 1 in
    Obs.Metrics.incr ms Obs.Metrics.counter_faa;
    let att = { self; begin_ts; reads = []; writes = [] } in
    (* A read-only transaction observing one consistent snapshot is
       serializable at its begin timestamp, so Hekaton skips read tracking
       and validation for it — the standard optimization; update
       transactions validate every read. *)
    let track_reads = t.mode = Hekaton && not (Txn.is_read_only txn) in
    W.enter w W.Exec;
    try
      R.work dispatch_work;
      let ctx =
        {
          Txn.read =
            (fun k ->
              R.work read_resolve_work;
              let head = R.Cell.get (Store.get t.store k) in
              let v, spec = find_visible ms att head in
              (match spec with
              | Some producer -> register_dependency att producer
              | None -> ());
              if track_reads then att.reads <- (k, v) :: att.reads;
              R.copy ~bytes:(Store.record_bytes t.store k);
              v.data);
          write = (fun k value -> do_write t att k value);
          spin = R.work;
        }
      in
      match txn.Txn.logic ctx with
      | Txn.Commit ->
          W.enter w W.Commit;
          commit t ms att;
          W.finish w Txn.Commit;
          true
      | Txn.Abort ->
          rollback att;
          W.finish w Txn.Abort;
          true
    with Conflict reason ->
      rollback att;
      (match reason with
      | Ww -> Obs.Metrics.incr ms Obs.Metrics.ww_aborts
      | Validation -> Obs.Metrics.incr ms Obs.Metrics.validation_aborts
      | Dep -> Obs.Metrics.incr ms Obs.Metrics.dep_aborts);
      W.conflict w ~name:(conflict_name reason);
      false

  let run t txns =
    W.run ~workers:t.workers
      ~track:(match t.mode with Hekaton -> "hekaton" | Snapshot -> "si")
      ~select:
        Obs.Metrics.
          [ counter_faa; version_steps; ww_aborts; validation_aborts; dep_aborts ]
      ~cc_aborts:Obs.Metrics.[ ww_aborts; validation_aborts; dep_aborts ]
      (fun w txn ->
        (* Retry after back-off, like the paper's optimistic baselines. *)
        W.retry w ~backoff:(ref 1) ~max_backoff (fun () -> run_attempt t w txn))
      txns

  (* --- inspection --- *)

  (* Post-quiescence audit. Settled chains carry [Ts] stamps on both
     sides of every version; any [Owned] metadata surviving the joins is
     a transaction that never released its write — reported as a dangling
     owner, and the key's order/consistency checks are skipped since its
     stamps are not yet numbers. *)
  let check_chains t report =
    R.without_cost (fun () ->
        Store.iter t.store (fun k slot ->
            let dangling = ref false in
            let meta_ts which m =
              match m with
              | Ts e -> Some e
              | Owned _ ->
                  dangling := true;
                  Bohm_analysis.Report.add report ~key:k
                    Bohm_analysis.Report.Chain_dangling_lock
                    (which ^ " stamp still owned after quiescence");
                  None
            in
            let rec entries v acc =
              let b = meta_ts "begin" (R.Cell.get v.begin_meta) in
              let e = meta_ts "end" (R.Cell.get v.end_meta) in
              let acc =
                match (b, e) with
                | Some b, Some e ->
                    Bohm_analysis.Chain.entry ~begin_ts:b ~end_ts:(Some e)
                      ~filled:true ()
                    :: acc
                | _ -> acc
              in
              match v.prev with
              | None -> List.rev acc
              | Some p -> entries p acc
            in
            let es = entries (R.Cell.get slot) [] in
            if not !dangling then Bohm_analysis.Chain.check_key report k es))

  let read_latest t k =
    let rec newest v =
      match R.Cell.get v.begin_meta with
      | Ts _ -> v.data
      | Owned _ -> (
          match v.prev with Some p -> newest p | None -> v.data)
    in
    newest (R.Cell.get (Store.get t.store k))

  let chain_length t k =
    let rec go v acc =
      match v.prev with Some p -> go p (acc + 1) | None -> acc
    in
    go (R.Cell.get (Store.get t.store k)) 1
end

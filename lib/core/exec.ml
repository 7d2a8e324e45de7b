(* The execution stage (§3.3): resolve each read to its version, run the
   logic, install the writes, and — when a read lands on an unfilled
   placeholder — help the producer, retry, or park until a fill wakes the
   transaction. Thread 0 of each shard's pool also votes for the shard
   and publishes the GC low watermark. *)

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module F = Footprint.Make (R)
  open T

  (* Carries the key read, the unfilled version (so the wakeup path can
     register a waiter on it — the key locates the version's slot in the
     producer's write set), and the producing transaction (so the retry
     path can help it / key its retry list on it). *)
  exception Blocked_on of Key.t * wrapped V.t * wrapped

  (* The transaction producing the unfilled version [v]. *)
  let producer_of v =
    match V.producer v with
    | Some producer -> producer
    | None -> assert false (* bulk-loaded versions carry data *)

  (* The predecessor a placeholder invalidated. *)
  let prev_of v =
    match V.prev v with
    | Some prev -> prev
    | None -> assert false (* placeholders always have a prev *)

  (* The version a read of [k] resolves to, where [enc] is [k]'s
     [Footprint.fp_find] (-1: undeclared). *)
  let resolve_version t w k enc =
    R.work Types.read_resolve_work;
    (* A key in the write set reads its own predecessor version (the
       placeholder's prev); otherwise the CC annotation (if on) or a chain
       walk from the cached head locates the visible version. *)
    let n_rs = Array.length w.txn.Txn.read_set in
    match enc with
    | -1 ->
        invalid_arg
          (Printf.sprintf "Bohm: read of undeclared key %s" (Key.to_string k))
    | enc when enc >= n_rs -> prev_of (F.stamp t w enc)
    | i when t.config.Config.read_annotation -> F.stamp t w i
    | _ -> (
        let head = R.Cell.get (F.slot_for t w k) in
        match V.visible_at head ~ts:w.ts with
        | Some v -> v
        | None ->
            invalid_arg
              "Bohm: version visible to transaction was garbage collected")

  let read_version_data t k v =
    match R.Cell.get (V.data_cell v) with
    | Some value ->
        R.copy ~bytes:(Store.record_bytes t.store k);
        value
    | None -> raise (Blocked_on (k, v, producer_of v))

  (* Input-readiness scan for the wakeup path. Everything an execution can
     read — the logic's reads and the install's copy-forward of unwritten
     write-set keys — is declared in the footprint, so a blocked dependency
     can be found (and parked on) without claiming the transaction or
     dispatching its logic: a blocked probe costs a few reads instead of a
     claim/release RMW pair plus a logic run that ends in an exception.
     Returns the first unfilled input exactly as the [Blocked_on] raise
     site would report it ([resolve_version] maps a write-set key to its
     predecessor, the version both an RMW read and the copy-forward
     consume). A re-scan after a wakeup walks the already-filled prefix
     out of cache, so its cost shrinks as the frontier advances. Only
     called once [try_advance] has armed [w.inputs]. *)
  let find_unfilled t w =
    let n = Array.length w.inputs in
    let rec scan i =
      if i >= n then None
      else begin
        let v =
          let v = w.inputs.(i) in
          if v != t.no_version then v
          else begin
            let k = Footprint.key_at w.txn i in
            let enc = Footprint.fp_find w.txn w.fp_enc k in
            let v = resolve_version t w k enc in
            w.inputs.(i) <- v;
            v
          end
        in
        if R.Cell.get (V.data_cell v) <> None then begin
          if w.input_frontier < i + 1 then w.input_frontier <- i + 1;
          scan (i + 1)
        end
        else Some (Footprint.key_at w.txn i, v, producer_of v)
      end
    in
    scan w.input_frontier

  (* Fill every placeholder of [w]. On [Abort] — or for declared write-set
     keys the logic never wrote — the predecessor's value is copied
     forward (§3.3.1, "Write Dependencies"). *)
  let install t writes w outcome =
    let n_rs = Array.length w.txn.Txn.read_set in
    Array.iteri
      (fun j k ->
        let v = F.stamp t w (n_rs + j) in
        let value =
          match (outcome, writes.(j)) with
          | Txn.Commit, Some value -> value
          | _ -> read_version_data t k (prev_of v)
        in
        R.copy ~bytes:(Store.record_bytes t.store k);
        R.Cell.set (V.data_cell v) (Some value))
      w.txn.Txn.write_set

  let claim w = R.Cell.cas w.state Types.st_unprocessed Types.st_executing
  let release w = R.Cell.set w.state Types.st_unprocessed

  (* Publish a waiter for [w] on the unfilled version [bv]. [true] means
     parked: exactly one wakeup carrying [w.seq] will reach this thread's
     ready queue. [false] means the fill won the race and [w] should be
     retried inline. [w] must be unclaimed here — the wakeup's consumer
     (this thread, later) needs the claim CAS to be able to succeed.

     The lost-wakeup-free publication order is: (1) set the version's bit
     in the producer's [waited] mask (or observe it already set), (2) CAS
     the record onto the version's list, (3) re-read the data. The
     filler's order is: store all data, read its own [waited], and probe
     the marked versions' lists, sealing the non-empty ones. If our
     re-read at (3) finds no data, our (1) and (2) precede the filler's
     data store and hence both its mask read and its list probe, so the
     filler is guaranteed to see the bit and our record: the wakeup will
     come. If the re-read finds data, the filler may have read the mask
     (or probed the list) before we published — so we race it for the
     record's claim token: winning means no wakeup is coming and we retry
     inline; losing means the wakeup is already on its way and parking is
     safe. *)
  let register_parked t ex ~dep ~key w bv =
    R.work !Bohm_runtime.Costs.exec_waiter_register;
    let batch = Footprint.batch_of t.config w.seq in
    let wt = V.make_waiter ~owner:ex.ex_gid ~batch ~index:w.seq in
    (* [bv] is [dep]'s placeholder for [key], so [key] is in [dep]'s write
       set and the footprint map gives its write-set slot in one probe. *)
    let bit =
      let n_rs = Array.length dep.txn.Txn.read_set in
      match Footprint.fp_find dep.txn dep.fp_enc key with
      | enc when enc >= n_rs -> 1 lsl ((enc - n_rs) mod 62)
      | _ -> assert false
    in
    let rec mark () =
      let cur = R.Cell.get dep.waited in
      if cur land bit = 0 && not (R.Cell.cas dep.waited cur (cur lor bit))
      then mark ()
    in
    mark ();
    match V.register_waiter bv wt with
    | `Sealed -> false
    | `Registered ->
        if R.Cell.get (V.data_cell bv) = None then begin
          R.work !Bohm_runtime.Costs.exec_park;
          ex.ex_parked <- (w.seq, wt, bv) :: ex.ex_parked;
          true
        end
        else if R.Cell.cas wt.V.w_claimed 0 1 then false
        else begin
          (* Token race lost: the wakeup is already queued, no point
             watching the version. *)
          R.work !Bohm_runtime.Costs.exec_park;
          true
        end

  type advance =
    | Done
    | Busy
    | Blocked_by of wrapped
    | Parked  (** Waiter registered; a wakeup will re-deliver this txn. *)

  (* Bounded poll of an actively-executing dependency, the futex-style
     spin-then-park split: a dependency whose claim is held by a thread
     currently running its logic completes within a logic's length, so a
     few dozen cached re-reads of its state word (the line is unchanged
     until completion, so re-reads stay local) beat a park/wakeup round
     trip of hot-line RMWs. Gives up immediately when the dependency is
     not mid-execution — an unprocessed dependency is itself blocked, its
     completion is a whole chain away, and that long wait is exactly what
     the waiter protocol is for. *)
  let spin_while_executing dep =
    let rec go budget =
      let s = R.Cell.get dep.state in
      if s = Types.st_complete then true
      else if s <> Types.st_executing || budget = 0 then false
      else begin
        R.relax ();
        go (budget - 1)
      end
    in
    go 32

  (* A dependency block of [w] on [dep]'s version of [bk]: counted, and on
     an observed run remembered as the stall-blame pair. *)
  let note_block ex w bk dep =
    Obs.Metrics.incr ex.es_ms Obs.Metrics.dep_blocks;
    if ex.ex_obs <> None then
      w.obs_blocker <- Printf.sprintf "%d:%s" dep.seq (Key.to_string bk)

  (* Wakeup-side half of a fill: seal the written versions' waiter lists,
     push one ready-queue wakeup per unclaimed record, then drive the
     woken transactions directly (continuation helping). The caller runs
     this strictly after [install]'s data stores — that order is what
     makes a registrant's "registered, then re-read data as [None]"
     observation a guarantee that this drain will see its record — and
     after publishing [st_complete], so spinning and polling consumers
     advance past [w] while the filler is still paying for the coherence
     traffic of the drain. The pushes all happen before the first drive:
     liveness never depends on the helping, only on the queued wakeup —
     the drive just collapses the fill-to-re-attempt handoff to zero for
     the common case, so a dependency chain runs at one thread's serial
     speed instead of paying a queue round-trip per link. *)
  let rec wake_waiters t r sh ex ~depth w =
    match r.queues with
    | None -> ()
    | Some queues -> (
        match R.Cell.get w.waited with
        | 0 -> ()
        | mask ->
            let woken = ref [] in
            let n_rs = Array.length w.txn.Txn.read_set in
            for j = 0 to Array.length w.txn.Txn.write_set - 1 do
              if mask land (1 lsl (j mod 62)) <> 0 then begin
                let v = F.stamp t w (n_rs + j) in
                (* Seal only lists with something on them: an empty list
                   can stay unsealed forever because a registration racing
                   this fill self-serves through its claim token (its data
                   re-read necessarily finds the store above). *)
                if V.has_waiters v then
                  List.iter
                    (fun (wt : V.waiter) ->
                      (* The claim token: losing this CAS means the
                         registrant saw the data and served itself —
                         pushing anyway would wake a thread for work
                         already done. *)
                      if R.Cell.cas wt.V.w_claimed 0 1 then begin
                        R.work !Bohm_runtime.Costs.exec_wake_push;
                        Sync.Mpsc.push queues.(wt.V.w_owner) wt.V.w_index;
                        Obs.Metrics.incr ex.es_ms Obs.Metrics.wakeups;
                        instant ex.ex_obs ~name:"wakeup" ~batch:wt.V.w_batch;
                        woken := wt.V.w_index :: !woken
                      end)
                    (V.seal_waiters v)
              end
            done;
            List.iter
              (fun idx ->
                ignore
                  (try_advance t r sh ex ~depth:(depth + 1) ~mine:false
                     r.wrapped.(idx)))
              (List.rev !woken))

  (* One exclusive execution attempt; caller has claimed [w]. Returns the
     blocking transaction if a needed version is still unproduced. Logic is
     re-run from scratch on retry, so it must be a pure function of its
     reads. *)
  and attempt t r sh ex ~depth w =
    let obs_t0 = obs_now ex.ex_obs in
    if ex.ex_obs <> None && w.obs_first = min_int then w.obs_first <- obs_t0;
    let n_rs = Array.length w.txn.Txn.read_set in
    let n_ws = Array.length w.txn.Txn.write_set in
    try
      if Array.length ex.ex_writes < n_ws then
        ex.ex_writes <- Array.make n_ws None
      else Array.fill ex.ex_writes 0 n_ws None;
      let writes = ex.ex_writes in
      R.work Types.exec_dispatch_work;
      let ctx =
        {
          Txn.read =
            (fun k ->
              let enc = Footprint.fp_find w.txn w.fp_enc k in
              match if enc >= n_rs then writes.(enc - n_rs) else None with
              | Some value -> value
              | None -> read_version_data t k (resolve_version t w k enc));
          write =
            (fun k value ->
              let enc = Footprint.fp_find w.txn w.fp_enc k in
              if enc < n_rs then
                invalid_arg
                  (Printf.sprintf "Bohm: write of undeclared key %s"
                     (Key.to_string k));
              writes.(enc - n_rs) <- Some value);
          spin = R.work;
        }
      in
      let outcome = w.txn.Txn.logic ctx in
      install t writes w outcome;
      (match outcome with
      | Txn.Commit -> ex.committed <- ex.committed + 1
      | Txn.Abort -> ex.logic_aborts <- ex.logic_aborts + 1);
      R.Cell.set w.state Types.st_complete;
      (match ex.ex_lat with
      | None -> ()
      | Some lat ->
          (* The four-phase decomposition of this transaction's life:
             run start → CC published its batch (cc_wait) → first claimed
             attempt (queue_wait) → this attempt (dep_stall) → complete
             (exec), against this thread's shard's publication stamps. *)
          let t1 = R.now_ns () in
          let b = Footprint.batch_of t.config w.seq in
          let cc_pub = sh.sh_cc_pub.(b) in
          Obs.Latency.add lat Obs.Latency.Exec (t1 - obs_t0);
          Obs.Latency.add lat Obs.Latency.Dep_stall (obs_t0 - w.obs_first);
          Obs.Latency.add lat Obs.Latency.Queue_wait (w.obs_first - cc_pub);
          Obs.Latency.add lat Obs.Latency.Cc_wait (cc_pub - r.run_start);
          (* Stall blame: attribute this transaction's dep_stall window to
             the last (writer, key) pair it blocked on. *)
          if w.obs_blocker <> "" then
            instant ex.ex_obs
              ~name:("dep_stall:" ^ w.obs_blocker)
              ~batch:b ~value:(obs_t0 - w.obs_first));
      wake_waiters t r sh ex ~depth w;
      None
    with Blocked_on (bk, bv, dep) ->
      note_block ex w bk dep;
      Some (bk, bv, dep)

  (* One non-blocking pass at driving [w] to completion (§3.3.1): claim it,
     attempt it, and on a dependency block release it — so any thread can
     pick it up — and help the dependency (recursively, to bounded depth).
     Reports the blocking transaction so the caller can avoid re-running
     [w]'s logic before the dependency has resolved. On the wakeup path
     the claim is preceded by the input-readiness scan, so a blocked
     transaction is detected — and parked — without claim traffic or a
     wasted logic dispatch; the logic runs once, when its inputs are
     known filled. *)
  and try_advance t r sh ex ~depth ~mine w =
    let rec go retries =
      let s = R.Cell.get w.state in
      if s = Types.st_complete then Done
      else if s = Types.st_executing || depth > 32 then Busy
      else begin
        match
          (* Probe readiness only once a transaction has blocked before
             (the memo array marks it): a first attempt's logic discovers
             a block at the same cost as a cold scan would, so the scan
             pays for itself only on re-attempts, where the frontier memo
             makes it a couple of cached reads. *)
          match r.queues with
          | Some _ when Array.length w.inputs > 0 -> find_unfilled t w
          | _ -> None
        with
        | Some (bk, bv, dep) ->
            note_block ex w bk dep;
            on_block retries (bk, bv, dep)
        | None ->
            if claim w then begin
              match attempt t r sh ex ~depth w with
              | None ->
                  if not mine then begin
                    Obs.Metrics.incr ex.es_ms Obs.Metrics.steals;
                    instant ex.ex_obs ~name:"steal"
                      ~batch:(Footprint.batch_of t.config w.seq)
                  end;
                  Done
              | Some blocked ->
                  release w;
                  (* Arm the readiness scan for every later pass at [w]:
                     one memo slot per footprint entry. *)
                  if Array.length w.inputs = 0 then
                    w.inputs <- Array.make (Array.length w.refs) t.no_version;
                  on_block retries blocked
            end
            else Busy
      end
    and on_block retries (bk, bv, dep) =
      ignore (try_advance t r sh ex ~depth:(depth + 1) ~mine:false dep);
      (* If helping resolved the dependency, finish [w] right away — its
         own dependents may be waiting on it. If the dependency is
         mid-execution on another thread, park [w]: on the retry path it
         goes to the caller's retry list; on the wakeup path a waiter is
         registered on the blocking version, and only if the fill beats
         the registration is [w] retried inline. *)
      if retries < 12 && R.Cell.get dep.state = Types.st_complete then
        go (retries + 1)
      else begin
        match r.queues with
        | None -> Blocked_by dep
        | Some _ when mine ->
            if spin_while_executing dep then go (retries + 1)
            else if register_parked t ex ~dep ~key:bk w bv then Parked
            else go (retries + 1)
        | Some _ ->
            (* A foreign transaction (steal scan or helping) is the
               owner's to park: the owner either has it on its busy list
               or will register its own waiter, so a second registration
               would only add protocol traffic and a redundant wakeup.
               Walk away. *)
            Blocked_by dep
      end
    in
    go 0

  (* Work stealing across assignments (§3.3.1: "other threads are allowed
     to execute transactions assigned to i"): pick up any transaction of
     batch [b] still unprocessed — typically ones queued behind a long
     read-only transaction on another thread. Both disciplines run one
     pass before leaving the batch; the wakeup path additionally runs it
     on quiet waiting passes, so a thread whose own stripe is parked
     helps drive the head of the dependency chain instead of idling — the
     useful half of what the retry path's forced re-polling does, without
     re-running logic already known to be blocked. *)
  let steal_pass t r sh ex ~b ~bounded =
    let bs = t.config.Config.batch_size in
    let lo = b * bs and hi = min (Array.length r.wrapped) ((b + 1) * bs) - 1 in
    let advanced = ref false in
    let scanning = ref true in
    let try_steal w =
      if R.Cell.get w.state = Types.st_unprocessed then
        match try_advance t r sh ex ~depth:0 ~mine:false w with
        | Done -> advanced := true
        | Blocked_by _ | Parked ->
            (* A bounded (idle-help) pass stops at the first blocked
               steal: on a dependency chain everything past the head is
               blocked on it, and re-running each one's logic just to
               watch it block is the spin the wakeup design exists to
               avoid. *)
            if bounded then scanning := false
        | Busy -> ()
    in
    (* Shared per-batch cursor: the longest all-complete prefix any
       sweeper has observed. Late sweepers resume there instead of
       rescanning the whole batch. Purely an iteration-start hint — a
       stale cursor only means extra (idempotent) state checks, and the
       cursor is CASed against the value read so it never moves
       backwards. *)
    let cur = sh.sh_steal.(b) in
    let base = R.Cell.get cur in
    let span = hi - lo in
    let prefix = ref base in
    let prefix_open = ref true in
    let s = ref base in
    while !scanning && !s <= span do
      let w = r.wrapped.(lo + !s) in
      (* Foreign-home transactions are another shard's to run: skip them
         without reading their state (host check), and count them into
         the prefix — "nothing for this shard to steal below". *)
      if w.home = sh.sh_id then begin
        try_steal w;
        if !prefix_open then
          if R.Cell.get w.state = Types.st_complete then prefix := !s + 1
          else prefix_open := false
      end
      else if !prefix_open then prefix := !s + 1;
      incr s
    done;
    if !prefix > base then ignore (R.Cell.cas cur base !prefix);
    !advanced

  (* A retry-list entry for an outcome ([None]: done). Each entry
     remembers the dependency that blocked it, so logic is not re-run
     before that dependency resolves. *)
  let pending_entry w = function
    | Done -> None
    | Busy -> Some (w, None)
    | Blocked_by dep -> Some (w, Some dep)
    | Parked -> assert false (* wakeups are off *)

  (* The retry discipline, below [park_min_execs] execution threads: one
     pass over the transactions of batch [b] this thread is responsible
     for; blocked ones go to a retry list instead of stalling the thread
     ("T is later picked up by an execution thread", §3.3.1), polled
     until it drains. *)
  let retry_batch t r sh ex ~b =
    let bs = t.config.Config.batch_size and k = t.config.Config.exec_threads in
    let hi = min (Array.length r.wrapped) ((b + 1) * bs) - 1 in
    let pending = ref [] in
    (* Retry parked transactions whose blocking dependency has resolved;
       with [force] also the ones still apparently blocked. *)
    let sweep ~force =
      Obs.Metrics.incr ex.es_ms Obs.Metrics.exec_retry_scans;
      instant ex.ex_obs ~name:"retry_scan" ~batch:b;
      let progressed = ref false in
      pending :=
        List.filter_map
          (fun (w, dep) ->
            match dep with
            | Some d
              when (not force) && R.Cell.get d.state <> Types.st_complete ->
                Some (w, dep)
            | _ ->
                let entry =
                  pending_entry w (try_advance t r sh ex ~depth:0 ~mine:true w)
                in
                if Option.is_none entry then progressed := true;
                entry)
          !pending;
      !progressed
    in
    let idx = ref ((b * bs) + ex.ex_me) in
    while !idx <= hi do
      let w = r.wrapped.(!idx) in
      if w.home = sh.sh_id then begin
        Option.iter
          (fun e -> pending := e :: !pending)
          (pending_entry w (try_advance t r sh ex ~depth:0 ~mine:true w));
        (* Keep dependency chains moving: anything whose dependency has
           since completed is finished before taking on new work. *)
        if !pending <> [] then ignore (sweep ~force:false)
      end;
      idx := !idx + k
    done;
    (* Drain the retry list with exponential back-off: a thread whose
       whole list is blocked on another thread's in-flight transaction
       stops burning (simulated and real) cycles re-polling it. The force
       sweep makes an all-blocked pass re-execute every entry's logic
       against the same unfilled versions. That costs little here: this
       is the live path only below [park_min_execs], where re-running
       blocked logic against lines already in the retrier's cache is
       cheaper than a park/wake hand-off (see the driver). *)
    let backoff = Sync.Backoff.create () in
    while !pending <> [] do
      if sweep ~force:false || sweep ~force:true then
        Sync.Backoff.reset backoff
      else Sync.Backoff.once backoff
    done

  (* The wakeup discipline, from [park_min_execs] execution threads on:
     blocked transactions park a waiter on the version they need and are
     re-delivered through this thread's ready queue by whichever thread
     fills it — one re-attempt per resolved dependency instead of
     polling. The bookkeeping below is host-side and uncharged:
     [done_mark]/[remaining] track which of this thread's own stripe of
     batch [b] has been seen complete (guarding against double counts
     from stale wakeups), [busy] holds transactions last seen claimed by
     another thread — the one state with nobody obliged to notify us, so
     it is the one list still polled. *)
  let wakeup_batch t r sh ex queues ~b =
    let bs = t.config.Config.batch_size and k = t.config.Config.exec_threads in
    let wrapped = r.wrapped and me = ex.ex_me in
    let lo = b * bs and hi = min (Array.length wrapped) ((b + 1) * bs) - 1 in
    let my_home idx = wrapped.(idx).home = sh.sh_id in
    ex.ex_parked <- [];
    let span = hi - lo in
    let done_mark = Array.make (span + 1) false in
    let remaining = ref 0 in
    let off = ref me in
    while !off <= span do
      if my_home (lo + !off) then incr remaining;
      off := !off + k
    done;
    let busy = ref [] in
    let note idx outcome =
      match outcome with
      | Done ->
          let o = idx - lo in
          if
            o >= 0 && o <= span
            && o mod k = me
            && my_home idx
            && not done_mark.(o)
          then begin
            done_mark.(o) <- true;
            decr remaining
          end
      | Busy -> busy := idx :: !busy
      | Parked | Blocked_by _ -> ()
    in
    (* Drive any transaction by run index — wakeups can deliver stolen or
       earlier-batch transactions too; [note] ignores those for this
       batch's accounting. *)
    let drive idx =
      note idx
        (try_advance t r sh ex ~depth:0
           ~mine:(idx mod bs mod k = me && my_home idx)
           wrapped.(idx))
    in
    let drain_queue () =
      match Sync.Mpsc.drain queues.(ex.ex_gid) with
      | [] -> false
      | ready ->
          List.iter drive ready;
          true
    in
    (* Opportunistic self-service of parked registrations: watch the
       blocking versions' data lines (cached reads while unchanged) and
       race the filler for the claim token the moment one fills. Winning
       means no wakeup is coming — drive the transaction here; losing (or
       finding the token consumed) means a wakeup is queued, so just drop
       the watch. *)
    let poll_parked () =
      match ex.ex_parked with
      | [] -> false
      | entries ->
          (* Partition first, drive after: a drive can re-park its
             transaction, which appends to [ex_parked] — mutating the list
             mid-iteration would lose that entry (and with it the
             transaction). *)
          let ready = ref [] and kept = ref [] in
          List.iter
            (fun ((idx, (wt : V.waiter), bv) as entry) ->
              if R.Cell.get wt.V.w_claimed = 1 then
                (* Token consumed: the filler either completed the
                   transaction itself (continuation helping — no push in
                   that case, this poll is the owner's notification),
                   queued a push (re-drive is claim-protected), or is
                   mid-drive ([drive] files it on the busy list). *)
                ready := idx :: !ready
              else if R.Cell.get (V.data_cell bv) = None then
                kept := entry :: !kept
              else begin
                (* Fill observed before any wakeup: race the filler for
                   the token; whoever wins, the transaction is ready to
                   re-attempt now. *)
                ignore (R.Cell.cas wt.V.w_claimed 0 1);
                ready := idx :: !ready
              end)
            entries;
          ex.ex_parked <- !kept;
          List.iter drive (List.rev !ready);
          !ready <> []
    in
    let poll_busy () =
      match !busy with
      | [] -> false
      | entries ->
          Obs.Metrics.incr ex.es_ms Obs.Metrics.exec_retry_scans;
          instant ex.ex_obs ~name:"retry_scan" ~batch:b;
          busy := [];
          List.iter drive (List.rev entries);
          List.length !busy < List.length entries
    in
    let idx = ref (lo + me) in
    while !idx <= hi do
      if my_home !idx then begin
        drive !idx;
        (* Serve wakeups between dispatches to keep dependency chains
           moving, mirroring the retry path's mid-pass sweep. *)
        ignore (drain_queue ())
      end;
      idx := !idx + k
    done;
    (* Wait out the stripe: every incomplete own transaction is either on
       the busy list (claimed elsewhere — polled) or parked with a wakeup
       guaranteed to arrive on our queue. A quiet pass helps the batch
       through one steal scan, then charges one capped back-off. *)
    let backoff = Sync.Backoff.create () in
    while !remaining > 0 do
      let progressed = drain_queue () in
      let progressed = poll_parked () || progressed in
      let progressed = poll_busy () || progressed in
      let progressed = progressed || steal_pass t r sh ex ~b ~bounded:true in
      if progressed then Sync.Backoff.reset backoff
      else Sync.Backoff.once backoff
    done

  (* Batch-amortized cross-shard commit, run by thread 0 of each shard's
     pool (the shard's voter) after it clears batch [b]. It waits for its
     shard mates to clear [b] too (a one-thread soft barrier — the mates
     run ahead speculatively, which determinism makes safe: the outcome
     is a pure function of the shared log, so execution never has to wait
     for it), publishes [b] on its board watermark, then awaits every
     peer's, paying one [Costs.shard_vote] per peer. *)
  let vote t r sh ex ~b =
    let k = t.config.Config.exec_threads in
    let base = sh.sh_id * k in
    for e = 0 to k - 1 do
      Sync.spin_until (fun () -> R.Cell.get r.exec_progress.(base + e) >= b + 1)
    done;
    Sync.Watermark.publish r.votes.(sh.sh_id) b;
    let t0 = obs_now ex.ex_obs in
    for p = 0 to sh.sh_n - 1 do
      if p <> sh.sh_id then begin
        R.work !Bohm_runtime.Costs.shard_vote;
        Sync.Watermark.await r.votes.(p) ~at_least:b
      end
    done;
    span_since ex.ex_obs ex.ex_lat Obs.Latency.Shard_vote ~phase:"shard_vote"
      ~batch:b t0;
    (* The lost-vote fault models an abort vote lost in transit: the shard
       records a local abort that never reached the board, so its peers
       committed the batch anyway — the disagreement the vote-log audit
       must catch. *)
    sh.sh_vote_local.(b) <- t.lost_vote <> Some (sh.sh_id, b)

  let exec_loop t r sh ex =
    for b = 0 to r.n_batches - 1 do
      (* Epoch alignment: before touching batch [b], every shard's CC must
         have published it — a multi-shard transaction's remote
         placeholders (and any dependency's, in this batch or earlier) are
         then guaranteed to exist. One watermark unsharded. *)
      Array.iter
        (fun s -> Sync.Watermark.await s.sh_cc_done ~at_least:b)
        r.shards;
      let c0 = ex.committed in
      span_begin ex.ex_obs ~phase:"exec" ~batch:b;
      (match r.queues with
      | None -> retry_batch t r sh ex ~b
      | Some queues -> wakeup_batch t r sh ex queues ~b);
      ignore (steal_pass t r sh ex ~b ~bounded:false);
      (* Per-thread commit delta for this batch; the timeline sums the
         instants across execution tracks. *)
      instant ex.ex_obs ~name:"batch_commit" ~batch:b
        ~value:(ex.committed - c0);
      span_end ex.ex_obs;
      R.Cell.set r.exec_progress.(ex.ex_gid) (b + 1);
      if ex.ex_me = 0 then begin
        if Array.length r.votes > 0 then vote t r sh ex ~b;
        (* RCU-style low watermark: the minimum batch every execution
           thread has finished (§3.3.2). It ranges over every shard's pool:
           a cross-shard reader at batch [b] pins remote versions exactly
           like local ones. *)
        if sh.sh_id = 0 then begin
          let minimum = ref max_int in
          Array.iter
            (fun cell ->
              let p = R.Cell.get cell in
              if p < !minimum then minimum := p)
            r.exec_progress;
          R.Cell.set r.low_watermark !minimum
        end
      end
    done
end

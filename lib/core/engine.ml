(* The BOHM pipeline: the database, the per-shard and run-global state of
   one [run], the preprocessing stage (§3.2.2) and the driver that spawns
   preprocessing, CC ({!Cc}) and execution ({!Exec}) threads and reports.
   The records the stages share are in {!Types}; the post-run audits in
   {!Audit}. *)

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module F = Footprint.Make (R)
  module Cc = Cc.Make (R)
  module Exec = Exec.Make (R)
  open T
  include Audit.Make (R)

  type t = T.t

  let create config ~tables init =
    let store =
      Store.create_hash ~tables (fun k ->
          (* Chain heads are racy by design: a CC thread prepends for
             batch [b+1] while execution threads of batch [b] read —
             safe because chains are prepend-only and reads filter by
             timestamp, so the head is a synchronization cell. *)
          sync_cell (V.initial (init k)))
    in
    let no_version = V.initial Value.absent in
    {
      config;
      store;
      no_version;
      no_slot = R.Cell.make no_version;
      next_ts = 1;
      lost_vote = None;
      votes_log = [];
      pmap_log = [||];
      slab_seq = Array.make (config.Config.shards * config.Config.cc_threads) 0;
    }

  let config t = t.config

  let index_probes t = Store.probe_count t.store

  let vote_log t = t.votes_log

  (* Adaptive repartitioning needs the preprocessing sweep twice over: it
     is where per-segment occupancy is measured, and it is the only layer
     that maps keys to partitions when [preprocess] is on (CC dispatch
     consumes the stamped [owned_keys] / routing buffers). Without
     preprocessing the flag is inert and CC scans under the static map. *)
  let rebalance_on t =
    t.config.Config.cc_rebalance && t.config.Config.preprocess

  let shard_make t ~observed ~n_batches id =
    let m = t.config.Config.cc_threads and k = t.config.Config.exec_threads in
    let per_batch v = Array.make (max 1 n_batches) v in
    {
      sh_id = id;
      sh_n = t.config.Config.shards;
      sh_cc_barrier = Sync.Barrier.create ~parties:m;
      sh_pre_barrier = Sync.Barrier.create ~parties:(m + k);
      sh_pre_done = Sync.Watermark.create (-1);
      sh_cc_done = Sync.Watermark.create (-1);
      sh_routes =
        (if not t.config.Config.preprocess then [||]
         else
           Array.init n_batches (fun _ ->
               Array.init (m + k) (fun _ -> Array.make m [||])));
      sh_maps = per_batch (Partition_map.static ~parts:m);
      sh_rebal =
        (if rebalance_on t then
           Some (Rebalancer.make ~workers:(m + k) ~parts:m ~n_batches)
         else None);
      sh_steal = Array.init n_batches (fun _ -> sync_cell 0);
      sh_cc_batch0_start = 0.;
      sh_pre_complete = 0.;
      sh_cc_pub = (if observed then per_batch 0 else [||]);
      sh_pre_lat = (if observed then Some (Obs.Latency.create ()) else None);
      sh_vote_local = per_batch false;
    }

  let multi_shard w = w.owners land (w.owners - 1) <> 0

  (* One preprocessor's state: its index in the shard's team and its
     event track. *)
  type pre_thread = { pr_me : int; pr_obs : Obs.Buf.t option }

  (* The 3.2.2 pre-processing layer: embarrassingly parallel over
     transactions, it computes for each CC thread the footprint entries in
     its partition — and resolves each footprint key's slot handle with
     the transaction's single index probe. Run as a pipeline stage: the
     shard's [cc_threads + exec_threads] preprocessors sweep one batch,
     meet at the shard's preprocessing barrier, publish the batch through
     [sh_pre_done] (the handshake CC threads consume, mirroring
     [sh_cc_done]), and move on to the next batch while CC works on this
     one. The sweep also feeds the per-partition routing buffers.

     With several shards, each shard's preprocessors still sweep the
     whole shared log (the classification charge is the cost of reading
     it), but stamp only the footprint entries their shard owns, into the
     shard's slice block of [owned_keys]; entries of a multi-shard
     transaction additionally pay [Costs.shard_route] apiece — the routed
     footprint slice arriving over the interconnect. Single-shard
     transactions of other shards contribute nothing here and are never
     charged a routing cost anywhere. *)
  let preprocess_loop t r sh pr =
    let m = t.config.Config.cc_threads in
    let bs = t.config.Config.batch_size in
    let workers = m + t.config.Config.exec_threads in
    let me = pr.pr_me and obs = pr.pr_obs in
    let n = Array.length r.wrapped in
    let scratch = Array.make m [] in
    let seg_lists = Array.make m [] in
    for b = 0 to r.n_batches - 1 do
      span_begin obs ~phase:"preprocess" ~batch:b;
      (* The map version pinned to this batch. Written (for [b >= 2]) by
         worker 0 at barrier [b - 2], which every worker has crossed
         before classifying batch [b]. With rebalancing off this is always
         the static map and the lookup is [Key.hash k mod m]. *)
      let pmap = sh.sh_maps.(b) in
      let occ =
        match sh.sh_rebal with
        | Some rb -> Rebalancer.occupancy rb ~batch:b ~worker:me
        | None -> [||]
      in
      let hi = min n ((b + 1) * bs) - 1 in
      let idx = ref ((b * bs) + me) in
      while !idx <= hi do
        let w = r.wrapped.(!idx) in
        let n_keys = Array.length w.refs in
        R.work (Types.cc_scan_base + (Types.preprocess_per_key * n_keys));
        Array.fill scratch 0 m [];
        let owned_here = ref 0 in
        for enc = 0 to n_keys - 1 do
          let k = Footprint.key_at w.txn enc in
          if owns sh k then begin
            ignore (F.slot_for t w k);
            let h = Key.hash k in
            if sh.sh_rebal <> None then begin
              let s = Partition_map.segment_of_hash pmap h in
              occ.(s) <- occ.(s) + 1
            end;
            let p = Partition_map.partition_of_hash pmap h in
            scratch.(p) <- enc :: scratch.(p);
            incr owned_here
          end
        done;
        (* Disjoint slice block per shard, published through this shard's
           [sh_pre_done]. *)
        let base = sh.sh_id * m in
        for p = 0 to m - 1 do
          w.owned_keys.(base + p) <- Array.of_list (List.rev scratch.(p))
        done;
        if multi_shard w && !owned_here > 0 then
          R.work (!Bohm_runtime.Costs.shard_route * !owned_here);
        let appended = ref 0 in
        for p = 0 to m - 1 do
          if scratch.(p) <> [] then begin
            seg_lists.(p) <- !idx :: seg_lists.(p);
            incr appended
          end
        done;
        if !appended > 0 then
          R.work (!Bohm_runtime.Costs.cc_route_append * !appended);
        idx := !idx + workers
      done;
      let mine = sh.sh_routes.(b).(me) in
      for p = 0 to m - 1 do
        mine.(p) <- Array.of_list (List.rev seg_lists.(p));
        seg_lists.(p) <- []
      done;
      span_end obs;
      Sync.Barrier.await sh.sh_pre_barrier;
      if me = 0 then begin
        (* Rebalance point: every worker's occupancy slots for batch [b]
           are complete (the barrier orders them before this read), and
           no preprocessor can reach batch [b + 2] until worker 0 crosses
           barrier [b + 1], so the map write is safe without further
           synchronization. Measurement and the (usually fruitless)
           evaluation are host-side and uncharged; only an actual
           publication charges [Costs.cc_rebalance] and emits a trace
           span — so a run whose map never changes replays the
           rebalance-off schedule bit-for-bit. *)
        (match sh.sh_rebal with
        | Some rb ->
            let load, imbalance = Rebalancer.measure rb sh.sh_maps ~batch:b in
            (* Per-batch measured imbalance for the timeline, in
               thousandths (instants carry ints). *)
            Option.iter
              (fun ratio ->
                instant obs ~name:"cc_imbalance" ~batch:b
                  ~value:(int_of_float (ratio *. 1000.)))
              imbalance;
            let ts0 = obs_now obs in
            if Rebalancer.repack rb sh.sh_maps ~batch:b ~load then begin
              R.work !Bohm_runtime.Costs.cc_rebalance;
              span_since obs sh.sh_pre_lat Obs.Latency.Rebalance
                ~phase:"rebalance" ~batch:b ts0
            end
        | None -> ());
        Sync.Watermark.publish sh.sh_pre_done b;
        if b = r.n_batches - 1 then sh.sh_pre_complete <- R.now ()
      end
    done

  (* Parking engages only when each shard's execution pool is at least
     [park_min_execs] wide; below that the engine keeps the retry
     discipline — an adaptive spin-then-park policy, decided statically
     per run because the pool size is fixed. The crossover is structural,
     not a tuning artifact: a park/wake hand-off costs ~6 RMWs on
     contended lines (mask, list CAS, seal, claim token, ready-queue
     push/drain — roughly 3k cycles), while re-running blocked
     transaction logic against lines already in the retrier's cache costs
     a few hundred. With one or two exec threads the ready work is
     consumed as fast as it is produced and the hand-off can never
     amortize; measured on the high-contention fig4 workload (theta 0.9,
     8-byte records) the crossover sits between 4 and 8 exec threads, so
     the conservative measured edge is used. The [k <= 1] case is also a
     correctness argument, not just a cost one: a single execution thread
     completes every batch in timestamp order behind the CC watermark, so
     a needed version's producer has always finished and no attempt can
     ever block. *)
  let park_min_execs = 8

  (* [shards] complete pipelines over the same shared input log (one, by
     default): one {!shard_ctx} per shard, one {!run} record for the
     state every shard shares, one thread-state record per pipeline
     thread. Commit is the per-batch vote round at the end of each
     execution batch, which a single shard skips. *)
  let run t txns =
    let n = Array.length txns in
    let bs = t.config.Config.batch_size in
    let n_batches = (n + bs - 1) / bs in
    let m = t.config.Config.cc_threads and k = t.config.Config.exec_threads in
    let shards = t.config.Config.shards in
    (* Observability. All tracks are created here, on the driver thread,
       before any worker spawns — the registry is unsynchronized — and
       every emission is host-side (uncharged [now_ns] samples into plain
       buffers), so an observed run replays the unobserved schedule
       bit-for-bit. Track names carry an [s<shard>/] prefix only when
       there is more than one shard. Creation order fixes the export's
       track ids: driver, every cc-*, every exec-*, then every pre-*. *)
    let recorder =
      if t.config.Config.obs then Obs.Recorder.current () else None
    in
    let observed = recorder <> None in
    let track s name =
      Option.map
        (fun r ->
          Obs.Recorder.track r
            ~name:(if shards = 1 then name else Printf.sprintf "s%d/%s" s name))
        recorder
    in
    let run_start = obs_now recorder in
    let driver =
      Option.map (fun r -> Obs.Recorder.track r ~name:"driver") recorder
    in
    span_begin driver ~phase:"sequence" ~batch:0;
    let wrapped = Array.mapi (F.wrap t) txns in
    t.next_ts <- t.next_ts + n;
    span_end driver;
    let votes =
      if shards = 1 then [||]
      else Array.init shards (fun _ -> Sync.Watermark.create (-1))
    in
    let r =
      {
        wrapped;
        n_batches;
        low_watermark = sync_cell 0;
        exec_progress = Array.init (shards * k) (fun _ -> sync_cell 0);
        (* Creation is free in the cost model. *)
        queues =
          (if k < park_min_execs then None
           else Some (Array.init (shards * k) (fun _ -> Sync.Mpsc.create ())));
        shards = Array.init shards (shard_make t ~observed ~n_batches);
        votes;
        run_start;
      }
    in
    let cc_threads =
      Array.init (shards * m) (fun gp ->
          {
            cc_part = gp mod m;
            inserted = 0;
            cc_ms = Obs.Metrics.shard ();
            (* Slab owner ids are global partition ids, unique across
               shards, so the arena-discipline audit keeps one owner per
               chain. *)
            alloc =
              V.alloc_make ~shared:(rebalance_on t) ~seq:t.slab_seq.(gp)
                ~owner:gp ();
            cc_obs = track (gp / m) (Printf.sprintf "cc-%d" (gp mod m));
          })
    in
    let exec_threads =
      Array.init (shards * k) (fun ge ->
          {
            ex_me = ge mod k;
            ex_gid = ge;
            ex_writes = [||];
            committed = 0;
            logic_aborts = 0;
            es_ms = Obs.Metrics.shard ();
            ex_obs = track (ge / k) (Printf.sprintf "exec-%d" (ge mod k));
            ex_lat = (if observed then Some (Obs.Latency.create ()) else None);
            ex_parked = [];
          })
    in
    let pre_threads =
      if not t.config.Config.preprocess then [||]
      else
        Array.init (shards * (m + k)) (fun gi ->
            let me = gi mod (m + k) in
            {
              pr_me = me;
              pr_obs = track (gi / (m + k)) (Printf.sprintf "pre-%d" me);
            })
    in
    let start = R.now () in
    (* All three stages run concurrently, pipelined per batch: the
       preprocessors publish batch [b] through [sh_pre_done], CC threads
       consume it and publish through [sh_cc_done], execution threads
       consume that — so preprocessing of batch [b+1] overlaps CC of batch
       [b] overlaps execution of batch [b-1]. Spawned stage by stage,
       shard-major within a stage. *)
    let spawn per_shard loop states =
      Array.to_list
        (Array.mapi
           (fun g th ->
             R.spawn (fun () -> loop t r r.shards.(g / per_shard) th))
           states)
    in
    let pre = spawn (m + k) preprocess_loop pre_threads in
    let cc = spawn m Cc.cc_loop cc_threads in
    let exec = spawn k Exec.exec_loop exec_threads in
    List.iter R.join pre;
    List.iter R.join cc;
    List.iter R.join exec;
    let elapsed = R.now () -. start in
    t.pmap_log <-
      (if rebalance_on t then Array.map (fun sh -> sh.sh_maps) r.shards
       else [||]);
    Array.iteri
      (fun gp cc ->
        t.slab_seq.(gp) <- t.slab_seq.(gp) + V.slabs_opened cc.alloc)
      cc_threads;
    t.votes_log <-
      (if shards = 1 then []
       else
         List.concat_map
           (fun sh ->
             List.init n_batches (fun b ->
                 (sh.sh_id, b, sh.sh_vote_local.(b))))
           (Array.to_list r.shards));
    let sum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
    let latency =
      if not observed then []
      else
        Obs.Latency.merge_all
          (List.filter_map Fun.id
             (Array.to_list (Array.map (fun ex -> ex.ex_lat) exec_threads)
             @ Array.to_list (Array.map (fun sh -> sh.sh_pre_lat) r.shards)))
    in
    (* Extras go through the typed metrics sheet: per-thread counter
       shards summed at this (post-join) barrier, run-level gauges set
       here. [to_extra] emits exactly the selected keys. *)
    let sheet =
      Obs.Metrics.collect
        ~select:
          Obs.Metrics.
            [ gc_collected; dep_blocks; steals; exec_retry_scans; wakeups ]
        (Array.to_list (Array.map (fun cc -> cc.cc_ms) cc_threads)
        @ Array.to_list (Array.map (fun ex -> ex.es_ms) exec_threads))
    in
    Obs.Metrics.seti sheet Obs.Metrics.slabs_opened
      (sum (fun cc -> V.slabs_opened cc.alloc) cc_threads);
    Obs.Metrics.seti sheet Obs.Metrics.slabs_retired
      (sum (fun cc -> V.slabs_retired cc.alloc) cc_threads);
    if shards > 1 then begin
      Obs.Metrics.seti sheet Obs.Metrics.cross_shard_txns
        (sum (fun w -> if multi_shard w then 1 else 0) wrapped);
      Obs.Metrics.seti sheet Obs.Metrics.shard_votes (shards * n_batches)
    end;
    (* Microseconds: virtual times are sub-millisecond, and the harness
       prints extras rounded to integers. *)
    Obs.Metrics.set sheet Obs.Metrics.cc_batch0_start_us
      (r.shards.(0).sh_cc_batch0_start *. 1e6);
    Obs.Metrics.set sheet Obs.Metrics.pre_complete_us
      (r.shards.(0).sh_pre_complete *. 1e6);
    Rebalancer.metrics sheet
      (List.filter_map (fun sh -> sh.sh_rebal) (Array.to_list r.shards));
    Bohm_txn.Stats.make ~txns:n
      ~committed:(sum (fun ex -> ex.committed) exec_threads)
      ~logic_aborts:(sum (fun ex -> ex.logic_aborts) exec_threads)
      ~cc_aborts:0 ~elapsed ~latency
      ~extra:(Obs.Metrics.to_extra sheet) ()
end

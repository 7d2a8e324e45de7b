(* The concurrency-control stage (§3.2): per batch, each CC thread walks
   the transactions owning footprint entries in its partition, annotates
   reads and inserts write placeholders, and collects invisible versions
   (Condition 3). *)

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module F = Footprint.Make (R)
  open T

  (* Annotate read-set entry [i] of [w] with the version it must read.
     Heads in this thread's partition only ever advance when this thread
     inserts, so the current head is exactly the version visible to [w];
     the annotation is an uncontended write into space reserved inside the
     transaction (3.2.3). *)
  let cc_annotate_read t w i =
    let head = R.Cell.get (F.slot_for t w w.txn.Txn.read_set.(i)) in
    R.Cell.set w.refs.(i) head

  (* Condition 3 (3.3.2): every transaction at or below the low-watermark
     batch boundary has finished executing, so versions invalidated at or
     before that timestamp are invisible forever. Truncate [v]'s chain
     there. *)
  let cc_collect t r cc ~batch v =
    let gc_ts = R.Cell.get r.low_watermark * t.config.Config.batch_size in
    if gc_ts > 0 then begin
      span_begin cc.cc_obs ~phase:"gc" ~batch;
      (* Whole-slab shape: one live-count decrement per dropped version,
         the slab freed when its count reaches zero. *)
      let dropped, _retired = V.truncate_retire cc.alloc v ~gc_ts in
      Obs.Metrics.add cc.cc_ms Obs.Metrics.gc_collected dropped;
      span_end cc.cc_obs
    end

  (* Insert the placeholder for write-set entry [i] of [w] and invalidate
     its predecessor (3.2.3, Figure 3); every 32nd insert of the thread
     also collects the chain. *)
  let cc_insert_write t r cc w i =
    let k = w.txn.Txn.write_set.(i) in
    let slot = F.slot_for t w k in
    let prev = R.Cell.get slot in
    (* Bump-allocate into the partition's current arena slab: no allocator
       visit, the hot columns written with two line stores (charged inside
       [slab_placeholder]). *)
    R.work !Bohm_runtime.Costs.cc_insert_slab;
    let batch = Footprint.batch_of t.config w.seq in
    let v = V.slab_placeholder cc.alloc ~batch ~ts:w.ts ~producer:w ~prev in
    R.Cell.set w.refs.(Array.length w.txn.Txn.read_set + i) v;
    V.set_end_ts prev w.ts;
    R.Cell.set slot v;
    cc.inserted <- cc.inserted + 1;
    if t.config.Config.gc && cc.inserted land 31 = 0 then
      cc_collect t r cc ~batch v

  (* The per-entry rule of both dispatch paths: encoded footprint entry
     [enc] of [w] belongs to this thread's partition. *)
  let cc_entry t r cc w enc =
    let n_rs = Array.length w.txn.Txn.read_set in
    if enc >= n_rs then cc_insert_write t r cc w (enc - n_rs)
    else if t.config.Config.read_annotation then cc_annotate_read t w enc

  (* A transaction routed to a CC partition without a stamped slice: the
     [pre_done] watermark handshake broke (routing only lists transactions
     owning at least one entry of the partition, and the stamps are
     published with the routes). Structured so sanitized runs can
     localize the failure to a pipeline coordinate. *)
  let stamp_failure ~shard ~partition ~batch ~idx =
    invalid_arg
      (Printf.sprintf
         "Bohm: pipeline handshake failure: concurrency-control partition \
          %d of shard %d reached txn %d of batch %d before preprocessing \
          stamped it"
         partition shard idx batch)

  (* Apply the footprint entries this thread's partition owns in [w], as
     computed by preprocessing — no per-transaction scan (the Amdahl term
     of 3.2.2). Each shard's preprocessors stamp their own slice block of
     [owned_keys], at [shard * cc_threads + partition]. A routing buffer
     delivered [w]'s index directly, hence the [Costs.cc_routed_dispatch]
     charge. *)
  let cc_apply_owned t r sh cc ~batch ~idx w =
    let mine =
      w.owned_keys.((sh.sh_id * t.config.Config.cc_threads) + cc.cc_part)
    in
    if Array.length mine = 0 then
      stamp_failure ~shard:sh.sh_id ~partition:cc.cc_part ~batch ~idx;
    R.work
      (!Bohm_runtime.Costs.cc_routed_dispatch
      + (Types.cc_scan_per_key * Array.length mine));
    Array.iter (cc_entry t r cc w) mine

  (* The scan path (preprocessing off): every CC thread scans the whole
     transaction to find its keys, filtered to its shard's keys, under the
     batch's (static) partition map. Without read annotation the read
     entries have nothing to do, so the host loop skips them; the charge
     still covers the whole footprint. *)
  let cc_scan_txn t r sh cc ~batch w =
    let n = Array.length w.refs in
    R.work (Types.cc_scan_base + (Types.cc_scan_per_key * n));
    let pmap = sh.sh_maps.(batch) in
    let n_rs = Array.length w.txn.Txn.read_set in
    for enc = (if t.config.Config.read_annotation then 0 else n_rs) to n - 1 do
      let k = Footprint.key_at w.txn enc in
      if
        Partition_map.partition_of_hash pmap (Key.hash k) = cc.cc_part
        && owns sh k
      then cc_entry t r cc w enc
    done

  let cc_loop t r sh cc =
    let bs = t.config.Config.batch_size in
    let n = Array.length r.wrapped in
    for b = 0 to r.n_batches - 1 do
      (* Pipeline stage handshake: wait for preprocessing to publish this
         batch; preprocessing of batch [b+1] proceeds meanwhile. *)
      if t.config.Config.preprocess then
        Sync.Watermark.await sh.sh_pre_done ~at_least:b;
      if b = 0 && cc.cc_part = 0 then sh.sh_cc_batch0_start <- R.now ();
      span_begin cc.cc_obs ~phase:"cc" ~batch:b;
      if t.config.Config.preprocess then begin
        (* Merge this partition's per-preprocessor segments into the
           dense slice, then dispatch only the transactions that own
           something here, in timestamp order — the batch's non-owners
           are never even loaded. Concatenating the (already ascending)
           segments and sorting restores ascending transaction index,
           i.e. timestamp order: segments are disjoint strided
           subsequences of the batch. *)
        let segs_b = sh.sh_routes.(b) in
        let total =
          Array.fold_left
            (fun acc per_worker -> acc + Array.length per_worker.(cc.cc_part))
            0 segs_b
        in
        let routed = Array.make total 0 in
        let pos = ref 0 in
        Array.iter
          (fun per_worker ->
            let seg = per_worker.(cc.cc_part) in
            Array.blit seg 0 routed !pos (Array.length seg);
            pos := !pos + Array.length seg)
          segs_b;
        Array.sort (fun (a : int) b -> compare a b) routed;
        R.work (!Bohm_runtime.Costs.cc_route_merge * total);
        Array.iter
          (fun idx -> cc_apply_owned t r sh cc ~batch:b ~idx r.wrapped.(idx))
          routed
      end
      else
        for idx = b * bs to min n ((b + 1) * bs) - 1 do
          cc_scan_txn t r sh cc ~batch:b r.wrapped.(idx)
        done;
      (* Open-slab occupancy at the partition's batch boundary — the
         timeline takes the max across partitions. *)
      instant cc.cc_obs ~name:"slab_occ" ~batch:b
        ~value:(V.slabs_opened cc.alloc - V.slabs_retired cc.alloc);
      span_end cc.cc_obs;
      Sync.Barrier.await sh.sh_cc_barrier;
      if cc.cc_part = 0 then begin
        (* Stamp before publishing: the watermark's release/acquire edge
           carries this host write to the execution threads, which read
           it only for batches whose [sh_cc_done] they have observed. *)
        if Array.length sh.sh_cc_pub > 0 then
          sh.sh_cc_pub.(b) <- R.now_ns ();
        Sync.Watermark.publish sh.sh_cc_done b
      end
    done
end

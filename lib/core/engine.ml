module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats

(* Work charges (cycles) for computation the cell/copy model does not cover:
   per-transaction write-set scanning in each CC thread (the serial fraction
   discussed under Amdahl's law in §3.2.2), dispatch and read resolution in
   the execution layer. The routed dispatch path and the slab insert have
   their own constants in [Bohm_runtime.Costs] (cc_routed_dispatch,
   cc_route_append, cc_route_merge, cc_insert_slab) so ablation benches can
   vary them. *)
let cc_scan_base = 30
let cc_scan_per_key = 4
let preprocess_per_key = 6
let exec_dispatch_work = 150
let read_resolve_work = 20

(* Transaction states (§3.3.1). *)
let st_unprocessed = 0
let st_executing = 1
let st_complete = 2

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module V = Version.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)
  module Obs = Bohm_obs

  type wrapped = {
    txn : Txn.t;
    ts : int;
    (* Index of this transaction in the run's input array — the payload a
       fill-triggered wakeup carries, so the woken thread can find the
       wrapper again without a search. *)
    seq : int;
    state : int R.Cell.t;
    (* Bitmask over this transaction's write set: bit [j mod 62] is set
       when a waiter registered on the version of write-set entry [j]. A
       registrant ORs its bit in before CASing its record onto the
       version's list; the filler reads the mask once after its data
       stores and probes only the marked versions' lists — so a fill that
       blocked nobody pays one read, not one probe per written version,
       and a fill that blocked one reader probes (modulo the rare mod-62
       alias) one list. Bits are never cleared: the mask is scoped to one
       wrapper's single successful install. *)
    waited : int R.Cell.t;
    (* CC's stamps, indexed by encoded footprint entry (read-set entry
       [i] at [i], write-set entry [j] at [n_rs + j]): at a read entry the
       version to read (stamped when read annotation is on), at a write
       entry the placeholder CC inserted. Unstamped entries hold the
       engine's [no_version] sentinel, so a stamp is the version itself,
       not a [Some] box. *)
    refs : wrapped V.t R.Cell.t array;
    (* Probe-once slot cache, indexed like [refs] but stamped only at a
       key's canonical entry ([fp_find]: its write entry when it has one).
       Stamped by whichever layer resolves the key first — preprocessing,
       CC, or execution — and consumed by everyone after it, so each
       footprint key costs at most one index probe per transaction.
       [no_slot] (physical equality) marks an entry not resolved yet.
       Entries are plain (not cells): each is written by exactly one
       thread before a published watermark ([pre_done]/[cc_done]) or
       while the wrapper is exclusively claimed, the same publication
       discipline as [owned_keys]. *)
    slots : wrapped V.t R.Cell.t array;
    (* Open-addressing key -> encoded-footprint-index map, built at wrap
       time; write-set entries shadow read-set entries for the same key.
       The one per-transaction lookup from a key to its entry. The table
       holds only encoded entries ([-1]: empty probe slot); the key of
       entry [enc] is read back from the transaction's own sets. Its size
       is the smallest power of two above the entry count, so every probe
       sequence reaches an empty slot. *)
    fp_enc : int array;
    (* With preprocessing (3.2.2): for each CC partition of each shard
       (index [shard * cc_threads + partition]), the footprint entries it
       owns, encoded as read-set index, or read-set length + write-set
       index. Written by one preprocessor thread of the shard and
       published to its CC threads through the [pre_done] watermark. *)
    owned_keys : int array array;
    (* Sharding metadata, computed at wrap time from the declared
       footprint (host-side, free): the bitmask of shards owning at least
       one footprint key, and the home shard — the shard of the first
       footprint entry — whose execution pool runs the logic. With one
       shard both are the constants [1] and [0]. *)
    owners : int;
    home : int;
    (* Wakeup-path input-readiness memo (probe-once, like [slots]): the
       resolved version for footprint entry [i] (read set first, then
       write-set predecessors), filled lazily by [find_unfilled], and the
       monotone index below which every input is known filled — data never
       unfills, so a re-scan resumes at the frontier instead of re-reading
       the prefix. Plain host fields, not cells: concurrent scanners
       write identical resolutions and monotone frontiers, so a lost
       update only costs a (charged) re-read. *)
    mutable inputs : wrapped V.t array; (* [no_version]: not resolved *)
    mutable input_frontier : int;
    (* Observability only: [now_ns] of the first claimed execution
       attempt, [min_int] until then — the anchor separating queue-wait
       from dependency-stall in the latency profile. Plain host field:
       written only while the wrapper is exclusively claimed. *)
    mutable obs_first : int;
    (* Observability only: the last (writer seq, key) pair this wrapper
       blocked on, as ["<writer_seq>:<key>"] ([""] = never blocked). Same
       claimed-exclusively discipline as [obs_first]; the completing
       attempt turns it into one [dep_stall:<writer>:<key>] instant for
       the stall-blame ledger. *)
    mutable obs_blocker : string;
  }

  type t = {
    config : Config.t;
    (* The version store, shared by every shard: a key's chain only ever
       grows through its owning shard's pipeline, so shards never touch
       each other's entries (cross-shard reads excepted). *)
    store : wrapped V.t R.Cell.t Store.t;
    mutable next_ts : int;
    (* Fault injection for the cross-shard checker's mutation tests:
       [Some (shard, batch)] makes that shard vote-abort the batch
       locally while its published vote is lost in transit (peers see
       ready). Set before [run]; never used outside tests. *)
    mutable lost_vote : (int * int) option;
    (* Per (shard, batch) vote of the last sharded [run]:
       (shard, batch, local_ready). Empty for single-shard runs. *)
    mutable votes_log : (int * int * bool) list;
    (* Per-shard, per-batch partition-map versions of the last [run] with
       adaptive repartitioning live ([pmap_log.(shard).(batch)]); [[||]]
       otherwise. Read only by the post-quiescence chain audit, which
       needs the map version pinned to each version's batch to know who
       legitimately owned a key when. *)
    mutable pmap_log : Partition_map.t array array;
    (* The stand-ins for an absent stamp in every wrapper's [refs],
       [inputs] and [slots] (compared by physical equality, never read
       through): one version and one slot per engine instead of an option
       box per entry. *)
    no_version : wrapped V.t;
    no_slot : wrapped V.t R.Cell.t;
    (* Per global CC partition, the sequence number of the next slab it
       opens. Each [run] builds fresh allocators; numbering on from the
       last run keeps a chain that spans runs in the audit's order. *)
    slab_seq : int array;
  }

  (* Carries the key read, the unfilled version (so the wakeup path can
     register a waiter on it — the key locates the version's slot in the
     producer's write set), and the producing transaction (so the retry
     path can help it / key its retry list on it). *)
  exception Blocked_on of Key.t * wrapped V.t * wrapped

  (* A cell read and written across threads with no other ordering: marked
     as a synchronization location for the race tracer. *)
  let sync_cell v =
    let c = R.Cell.make v in
    R.Cell.mark_sync c;
    c

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

  (* Adaptive repartitioning needs the preprocessing sweep twice over: it
     is where per-segment occupancy is measured, and it is the only layer
     that maps keys to partitions when [preprocess] is on (CC dispatch
     consumes the stamped [owned_keys] / routing buffers). Without
     preprocessing the flag is inert and CC scans with the static hash. *)
  let rebalance_on t =
    t.config.Config.cc_rebalance && t.config.Config.preprocess

  let partition_of cc_threads k = Key.hash k mod cc_threads

  (* --- Adaptive CC repartitioning (epoch-versioned partition maps) ---

     The published map version for batch [b] is [maps.(b)], an immutable
     {!Partition_map.t}; the array is pre-initialized to the static map
     (bit-identical to [partition_of]). Preprocessing worker 0 computes
     batch [b]'s per-segment occupancy at the preprocessing barrier and
     writes the resulting map into [maps.(b + rebalance_lag)] — batch
     [b+1] is already being classified under its published map, so the
     first batch that can safely consume a map derived from batch [b] is
     [b+2]. No new synchronization: worker 0 crosses barrier [b] before
     any preprocessor classifies batch [b+1] (same barrier), hence
     strictly before anyone reads [maps.(b+2)], and CC threads only read
     a batch's map behind [pre_done], whose release/acquire edge carries
     worker 0's host writes.

     Hysteresis knobs (see {!Partition_map.rebalance}): rebalancing
     evaluates only on enough samples per segment that uniform noise
     cannot look like skew — small-batch test runs never reach the floor
     — and publishes only on a real measured imbalance with a real
     predicted improvement. Evaluation is host-side and uncharged; an
     actual publication charges [Costs.cc_rebalance] on worker 0, so a
     run whose map never changes replays the static schedule
     bit-for-bit. *)
  let rebalance_lag = 2
  let rebalance_threshold = 1.25
  let rebalance_margin = 0.05
  let rebalance_min_samples_per_seg = 4

  (* Rebalancing state shared by one shard's preprocessors. Occupancy is
     accumulated host-side (uncharged) during the classification sweep
     into per-(batch, worker, segment) slots — no two workers share a
     counter — and summed by worker 0 at the batch barrier, which is
     also the only writer of the counters below. *)
  type rebal = {
    rb_occ : int array array array; (* batch -> pre worker -> segment *)
    rb_occ_parts : int array; (* whole-run per-partition occupancy *)
    mutable rb_rebalances : int;
    mutable rb_segs_moved : int;
    mutable rb_imb_max : float; (* max measured per-batch max/mean ratio *)
    mutable rb_imb_sum : float;
    mutable rb_imb_batches : int;
  }

  let rebal_make ~workers ~parts ~n_batches =
    let nsegs = Partition_map.segs_per_part * parts in
    {
      rb_occ =
        Array.init (max 1 n_batches) (fun _ ->
            Array.init workers (fun _ -> Array.make nsegs 0));
      rb_occ_parts = Array.make parts 0;
      rb_rebalances = 0;
      rb_segs_moved = 0;
      rb_imb_max = 1.0;
      rb_imb_sum = 0.;
      rb_imb_batches = 0;
    }

  (* Metrics gauges for a run's rebalancing state (one [rebal] per shard;
     a no-op on [[]] when the feature is off — no keys are selected at
     all, keeping rebalance-off extras bit-identical to the pre-feature
     engine). Imbalance ratios are measured occupancy max/mean per batch,
     under the map each batch actually ran with. *)
  let rebal_metrics sheet rebals =
    match rebals with
    | [] -> ()
    | hd :: _ ->
        let sum f = List.fold_left (fun a rb -> a + f rb) 0 rebals in
        let occ = Array.make (Array.length hd.rb_occ_parts) 0 in
        List.iter
          (fun rb ->
            Array.iteri (fun p l -> occ.(p) <- occ.(p) + l) rb.rb_occ_parts)
          rebals;
        let batches = sum (fun rb -> rb.rb_imb_batches) in
        let imb_sum =
          List.fold_left (fun a rb -> a +. rb.rb_imb_sum) 0. rebals
        in
        let imb_max =
          List.fold_left (fun a rb -> max a rb.rb_imb_max) 1.0 rebals
        in
        Obs.Metrics.seti sheet Obs.Metrics.rebalances
          (sum (fun rb -> rb.rb_rebalances));
        Obs.Metrics.seti sheet Obs.Metrics.segs_moved
          (sum (fun rb -> rb.rb_segs_moved));
        Obs.Metrics.set sheet Obs.Metrics.cc_imbalance_max imb_max;
        Obs.Metrics.set sheet Obs.Metrics.cc_imbalance_mean
          (if batches = 0 then 1.0 else imb_sum /. float_of_int batches);
        Array.iteri
          (fun p l -> Obs.Metrics.seti sheet (Obs.Metrics.cc_occ_p p) l)
          occ

  (* The key at encoded footprint entry [enc] of [txn]. *)
  let key_at txn enc =
    let n_rs = Array.length txn.Txn.read_set in
    if enc < n_rs then txn.Txn.read_set.(enc)
    else txn.Txn.write_set.(enc - n_rs)

  (* The smallest power of two above [n]: [n] entries leave at least one
     empty slot, so linear probing always terminates. *)
  let fp_capacity n =
    let rec go c = if c > n then c else go (2 * c) in
    go 1

  (* Slot of [k] in [txn]'s map [fp_enc]: the slot holding an entry for
     [k], or the empty slot where its probe sequence ends. *)
  let fp_probe txn fp_enc k =
    let mask = Array.length fp_enc - 1 in
    let rec go s =
      let enc = fp_enc.(s) in
      if enc = -1 || Key.equal (key_at txn enc) k then s
      else go ((s + 1) land mask)
    in
    go (Key.hash k land mask)

  (* Encoded footprint index of [k] in [w] (write-set entries shadow
     read-set entries), or -1 for an undeclared key. *)
  let fp_find w k = w.fp_enc.(fp_probe w.txn w.fp_enc k)

  let wrap t i txn =
    let n_rs = Array.length txn.Txn.read_set in
    let n_ws = Array.length txn.Txn.write_set in
    let fp_enc = Array.make (fp_capacity (n_rs + n_ws)) (-1) in
    for enc = 0 to n_rs + n_ws - 1 do
      fp_enc.(fp_probe txn fp_enc (key_at txn enc)) <- enc
    done;
    (* The claim word is CASed and re-read without other ordering — a
       synchronization cell (its first [cas] would promote it anyway;
       marking covers the plain reads before that). *)
    let state = sync_cell st_unprocessed in
    (* Written by registrants, read by the filler, with no other ordering
       in between — a synchronization cell like the claim word. *)
    let waited = sync_cell 0 in
    let shards = t.config.Config.shards in
    let owners, home =
      if shards = 1 then (1, 0)
      else begin
        let mask = ref 0 in
        let stamp k = mask := !mask lor (1 lsl Key.shard_of ~shards k) in
        Array.iter stamp txn.Txn.read_set;
        Array.iter stamp txn.Txn.write_set;
        let home =
          if n_rs > 0 then Key.shard_of ~shards txn.Txn.read_set.(0)
          else if n_ws > 0 then Key.shard_of ~shards txn.Txn.write_set.(0)
          else 0
        in
        ((if !mask = 0 then 1 lsl home else !mask), home)
      end
    in
    {
      txn;
      ts = t.next_ts + i;
      seq = i;
      state;
      waited;
      refs = Array.init (n_rs + n_ws) (fun _ -> R.Cell.make t.no_version);
      slots = Array.make (n_rs + n_ws) t.no_slot;
      fp_enc;
      (* Preprocessing writes each shard's [cc_threads] slice block in
         place (each shard's preprocessors own disjoint slots, published
         through that shard's [pre_done]), so the array must exist before
         any shard stamps it. *)
      owned_keys =
        (if t.config.Config.preprocess then
           Array.make (shards * t.config.Config.cc_threads) [||]
         else [||]);
      owners;
      home;
      inputs = [||];
      input_frontier = 0;
      obs_first = min_int;
      obs_blocker = "";
    }

  (* Slot handle for footprint key [k] of [w], cached at the key's
     canonical entry: the storage index is probed at most once per
     distinct key, even for an RMW key that occupies both a read-set and
     a write-set entry. *)
  let slot_for t w k =
    let c = fp_find w k in
    let slot = w.slots.(c) in
    if slot != t.no_slot then slot
    else begin
      let slot = Store.get t.store k in
      w.slots.(c) <- slot;
      slot
    end

  (* --- Telemetry: one emission path ---

     Every span and instant a pipeline thread emits goes through these
     helpers, onto the thread's own track ([None] when the run is
     unobserved). Unobserved, an emission is one match and never reads the
     clock; observed, it samples the uncharged [R.now_ns] into a host-side
     buffer, so an observed run replays the unobserved schedule
     bit-for-bit. *)
  let obs_now = function Some _ -> R.now_ns () | None -> 0

  let span_begin obs ~phase ~batch =
    match obs with
    | Some buf -> Obs.Buf.begin_span buf ~phase ~batch ~ts:(R.now_ns ())
    | None -> ()

  let span_end obs =
    match obs with
    | Some buf -> Obs.Buf.end_span buf ~ts:(R.now_ns ())
    | None -> ()

  (* A span from [t0] (an earlier [obs_now]) to now, also recorded as a
     [kind] latency sample: for a stage known to deserve a span only at
     its end (a rebalance that published), or one that emits nothing
     while it runs (the vote round). *)
  let span_since obs lat kind ~phase ~batch t0 =
    match obs with
    | Some buf ->
        let t1 = R.now_ns () in
        Obs.Buf.begin_span buf ~phase ~batch ~ts:t0;
        Obs.Buf.end_span buf ~ts:t1;
        Option.iter (fun lat -> Obs.Latency.add lat kind (t1 - t0)) lat
    | None -> ()

  let instant ?value obs ~name ~batch =
    match obs with
    | Some buf -> Obs.Buf.instant buf ~name ~batch ?value ~ts:(R.now_ns ())
    | None -> ()

  (* One shard's pipeline: preprocessor slice, CC partitions, exec pool,
     consuming the same shared input log and sharing the one version
     store. Everything per-shard lives here; only the driver writes the
     immutable fields, before any thread spawns. With one shard there is
     no vote round (one party has nobody to agree with) and no key is
     ever hashed to a shard. *)
  type shard_ctx = {
    sh_id : int;
    sh_n : int;
    sh_cc_barrier : Sync.Barrier.t;
    sh_pre_barrier : Sync.Barrier.t;
    (* Pipeline-stage handshakes: preprocessing publishes batch [b]
       through [sh_pre_done], CC through [sh_cc_done]. *)
    sh_pre_done : Sync.Watermark.t;
    sh_cc_done : Sync.Watermark.t;
    (* Per-(batch, partition) routing buffers, the dense-dispatch
       complement to [owned_keys]: while sweeping batch [b], preprocessor
       [me] appends each transaction index owning at least one footprint
       entry of partition [p] to its segment [sh_routes.(b).(me).(p)]
       (ascending — the sweep strides upward). Each CC thread merges its
       own partition's segments into the dense slice it iterates instead
       of scanning [lo..hi]; segments are published to it through
       [sh_pre_done], exactly like the [owned_keys] stamps they index
       into, so routing adds no synchronization of its own. [[||]] without
       preprocessing. *)
    sh_routes : int array array array array;
    (* Per-batch partition-map versions, pre-initialized to the static map
       (= [Key.hash k mod m]); preprocessing worker 0 overwrites later
       slots when a rebalance publishes. Each shard rebalances its own map
       from its own measured occupancy — shard key spaces are disjoint,
       so there is nothing to coordinate between the per-shard
       rebalancers. *)
    sh_maps : Partition_map.t array;
    sh_rebal : rebal option;
    (* Per-batch steal cursors: a cursor summarizes "nothing left for this
       shard's sweepers below", which is meaningless across shards. They
       are read/CASed across execution threads without other ordering —
       synchronization cells, like the progress counters. *)
    sh_steal : int R.Cell.t array;
    (* Virtual-time instrumentation of the preprocess/CC pipeline overlap,
       each written by one thread (CC partition 0, preprocessing worker
       0) and read by the driver after the joins. *)
    mutable sh_cc_batch0_start : float;
    mutable sh_pre_complete : float;
    (* Observability: per-batch CC publication stamps ([sh_cc_pub.(b)] is
       stamped by partition 0 just before [sh_cc_done] publishes [b], so
       the watermark's release/acquire edge publishes the host write to
       this shard's execution threads, which anchor their latency
       decomposition on it; [[||]] unobserved), and the rebalance latency
       recorder of preprocessing worker 0, the sole map publisher. *)
    sh_cc_pub : int array;
    sh_pre_lat : Obs.Latency.t option;
    (* This shard's per-batch column of the driver's vote log (its own
       vote: ready unless [lost_vote] names the batch), written only by
       the shard's voter thread and read by the driver after the
       joins. *)
    sh_vote_local : bool array;
  }

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
           Some (rebal_make ~workers:(m + k) ~parts:m ~n_batches)
         else None);
      sh_steal = Array.init n_batches (fun _ -> sync_cell 0);
      sh_cc_batch0_start = 0.;
      sh_pre_complete = 0.;
      sh_cc_pub = (if observed then per_batch 0 else [||]);
      sh_pre_lat = (if observed then Some (Obs.Latency.create ()) else None);
      sh_vote_local = per_batch false;
    }

  (* Run-global state. The wrapper array, the exec progress counters, the
     ready queues and the GC low watermark stay global rather than
     per-shard: cross-shard transactions read remote versions and park on
     remote producers through exactly the single-pipeline protocols, and
     the low watermark ranges over every shard's pool. *)
  type run = {
    (* The whole run, indexed by [seq] — also what lets a filler drive the
       transactions it just woke instead of only enqueueing them. *)
    wrapped : wrapped array;
    n_batches : int;
    (* Progress counters are read across threads without further
       coordination (the GC low-watermark protocol, §3.3.2) — they carry
       the publication edges, so they are synchronization cells too.
       Indexed by global exec id. *)
    low_watermark : int R.Cell.t;
    exec_progress : int R.Cell.t array;
    (* One MPSC ready queue per execution thread, by global exec id — a
       filler on the producing shard wakes the parked reader wherever it
       lives. [None]: the retry discipline (see [park_min_execs]). The
       registration signal is per-producer — the [waited] mask on the
       wrapper — not global: registrants already know the blocking
       transaction, and a per-wrapper mask keeps signal traffic off a
       single hot line. *)
    queues : Sync.Mpsc.t array option;
    shards : shard_ctx array;
    (* The cross-shard commit round's board: one watermark per shard, to
       which the shard's voter publishes each batch it has cleared. All
       shards sequence the log into the same global epochs (a batch
       boundary is a batch boundary everywhere), and pre-declared write
       sets mean no shard can refuse a batch, so the round carries no
       vote, only readiness: a shard commits batch [b] once every peer
       has published [b]. [[||]] with one shard. *)
    votes : Sync.Watermark.t array;
    (* Observability: the latency decomposition's run-start anchor. *)
    run_start : int;
  }

  (* Does shard [s] own key [k]? Host-side, uncharged. *)
  let owns s k = s.sh_n = 1 || Key.shard_of ~shards:s.sh_n k = s.sh_id

  (* --- Concurrency-control phase (§3.2) --- *)

  type cc_thread = {
    cc_part : int; (* partition index within the shard *)
    mutable inserted : int;
    (* Telemetry counter ([gc_collected]) that only feeds the [--json]
       extras, shard-local and merged at the barrier. *)
    cc_ms : Obs.Metrics.shard;
    (* Slab-arena allocator: the partition's open slab plus retirement
       counters. Owner-thread state. *)
    alloc : wrapped V.alloc;
    cc_obs : Obs.Buf.t option; (* this thread's event track *)
  }

  (* Annotate read-set entry [i] of [w] with the version it must read.
     Heads in this thread's partition only ever advance when this thread
     inserts, so the current head is exactly the version visible to [w];
     the annotation is an uncontended write into space reserved inside the
     transaction (3.2.3). *)
  let cc_annotate_read t w i =
    let head = R.Cell.get (slot_for t w w.txn.Txn.read_set.(i)) in
    R.Cell.set w.refs.(i) head

  (* Insert the placeholder for write-set entry [i] of [w] and invalidate
     its predecessor (3.2.3, Figure 3). *)
  let cc_insert_write t r cc w i =
    let k = w.txn.Txn.write_set.(i) in
    let slot = slot_for t w k in
    let prev = R.Cell.get slot in
    (* Bump-allocate into the partition's current arena slab: no allocator
       visit, the hot columns written with two line stores (charged inside
       [slab_placeholder]). *)
    R.work !Bohm_runtime.Costs.cc_insert_slab;
    let batch = w.seq / t.config.Config.batch_size in
    let v = V.slab_placeholder cc.alloc ~batch ~ts:w.ts ~producer:w ~prev in
    R.Cell.set w.refs.(Array.length w.txn.Txn.read_set + i) v;
    V.set_end_ts prev w.ts;
    R.Cell.set slot v;
    cc.inserted <- cc.inserted + 1;
    if t.config.Config.gc && cc.inserted land 31 = 0 then begin
      (* Condition 3 (3.3.2): every transaction at or below the
         low-watermark batch boundary has finished executing, so versions
         invalidated at or before that timestamp are invisible forever. *)
      let gc_ts = R.Cell.get r.low_watermark * t.config.Config.batch_size in
      if gc_ts > 0 then begin
        span_begin cc.cc_obs ~phase:"gc" ~batch;
        (* Whole-slab shape: one live-count decrement per dropped version,
           the slab freed when its count reaches zero. *)
        let dropped, _retired = V.truncate_retire cc.alloc v ~gc_ts in
        Obs.Metrics.add cc.cc_ms Obs.Metrics.gc_collected dropped;
        span_end cc.cc_obs
      end
    end

  (* A transaction routed to a CC partition without a stamped slice: the
     [pre_done] watermark handshake broke (routing only lists transactions
     owning at least one entry of the partition, and the stamps are
     published with the routes). Structured so sanitized runs can
     localize the failure to a pipeline coordinate. *)
  let stamp_failure ~batch ~partition ~idx =
    invalid_arg
      (Printf.sprintf
         "Bohm: pipeline handshake failure: concurrency-control partition \
          %d reached txn %d of batch %d before preprocessing stamped it"
         partition idx batch)

  (* Apply the footprint entries partition [gpart] owns in [w], as computed
     by preprocessing — no per-transaction scan (the Amdahl term of 3.2.2).
     [gpart] indexes [owned_keys]: [shard * cc_threads + partition], each
     shard's preprocessors stamping their own slice block. A routing
     buffer delivered [w]'s index directly, hence the
     [Costs.cc_routed_dispatch] charge. *)
  let cc_apply_owned t r cc ~gpart ~batch ~idx w =
    let mine = w.owned_keys.(gpart) in
    if Array.length mine = 0 then stamp_failure ~batch ~partition:gpart ~idx;
    let n_rs = Array.length w.txn.Txn.read_set in
    R.work
      (!Bohm_runtime.Costs.cc_routed_dispatch
      + (cc_scan_per_key * Array.length mine));
    Array.iter
      (fun encoded ->
        if encoded < n_rs then begin
          if t.config.Config.read_annotation then cc_annotate_read t w encoded
        end
        else cc_insert_write t r cc w (encoded - n_rs))
      mine

  (* The scan path (preprocessing off): every CC thread scans the whole
     transaction to find its keys, filtered to its shard's keys. *)
  let cc_scan_txn t r sh cc w =
    let cc_threads = t.config.Config.cc_threads in
    let rs = w.txn.Txn.read_set and ws = w.txn.Txn.write_set in
    let n_keys = Array.length rs + Array.length ws in
    R.work (cc_scan_base + (cc_scan_per_key * n_keys));
    if t.config.Config.read_annotation then
      Array.iteri
        (fun i k ->
          if partition_of cc_threads k = cc.cc_part && owns sh k then
            cc_annotate_read t w i)
        rs;
    Array.iteri
      (fun i k ->
        if partition_of cc_threads k = cc.cc_part && owns sh k then
          cc_insert_write t r cc w i)
      ws

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
         worker 0 at barrier [b - rebalance_lag], which every worker has
         crossed before classifying batch [b]. With rebalancing off this
         is always the static map and the lookup is [Key.hash k mod m]. *)
      let pmap = sh.sh_maps.(b) in
      let occ =
        match sh.sh_rebal with Some rb -> rb.rb_occ.(b).(me) | None -> [||]
      in
      let classify slot k =
        let h = Key.hash k in
        let p = Partition_map.partition_of_hash pmap h in
        if sh.sh_rebal <> None then begin
          let s = Partition_map.segment_of_hash pmap h in
          occ.(s) <- occ.(s) + 1
        end;
        scratch.(p) <- slot :: scratch.(p)
      in
      let lo = b * bs and hi = min n ((b + 1) * bs) - 1 in
      let idx = ref (lo + me) in
      while !idx <= hi do
        let w = r.wrapped.(!idx) in
        let rs = w.txn.Txn.read_set and ws = w.txn.Txn.write_set in
        let n_rs = Array.length rs in
        R.work
          (cc_scan_base + (preprocess_per_key * (n_rs + Array.length ws)));
        Array.fill scratch 0 m [];
        let owned_here = ref 0 in
        Array.iteri
          (fun i k ->
            if owns sh k then begin
              ignore (slot_for t w k);
              classify i k;
              incr owned_here
            end)
          rs;
        Array.iteri
          (fun i k ->
            if owns sh k then begin
              ignore (slot_for t w k);
              classify (n_rs + i) k;
              incr owned_here
            end)
          ws;
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
           no preprocessor can reach batch [b + rebalance_lag] until
           worker 0 crosses barrier [b + 1], so the map write below is
           safe without further synchronization. Measurement and the
           (usually fruitless) evaluation are host-side and uncharged;
           only an actual publication charges [Costs.cc_rebalance] and
           emits a trace span — so a run whose map never changes replays
           the rebalance-off schedule bit-for-bit. *)
        (match sh.sh_rebal with
        | Some rb ->
            let maps = sh.sh_maps in
            let nsegs = Partition_map.nsegs maps.(b) in
            let seg_load = Array.make nsegs 0 in
            Array.iter
              (fun per_worker ->
                for s = 0 to nsegs - 1 do
                  seg_load.(s) <- seg_load.(s) + per_worker.(s)
                done)
              rb.rb_occ.(b);
            let part_load = Partition_map.load_per_partition maps.(b) seg_load in
            Array.iteri
              (fun p l -> rb.rb_occ_parts.(p) <- rb.rb_occ_parts.(p) + l)
              part_load;
            if Array.exists (fun l -> l > 0) part_load then begin
              let ratio = Partition_map.imbalance part_load in
              if ratio > rb.rb_imb_max then rb.rb_imb_max <- ratio;
              rb.rb_imb_sum <- rb.rb_imb_sum +. ratio;
              rb.rb_imb_batches <- rb.rb_imb_batches + 1;
              (* Per-batch measured imbalance for the timeline, in
                 thousandths (instants carry ints). *)
              instant obs ~name:"cc_imbalance" ~batch:b
                ~value:(int_of_float (ratio *. 1000.))
            end;
            if b + rebalance_lag < r.n_batches then begin
              let base = maps.(b + rebalance_lag - 1) in
              let ts0 = obs_now obs in
              match
                Partition_map.rebalance base ~load:seg_load
                  ~min_samples:(rebalance_min_samples_per_seg * nsegs)
                  ~threshold:rebalance_threshold ~margin:rebalance_margin
              with
              | Some pmap' ->
                  R.work !Bohm_runtime.Costs.cc_rebalance;
                  rb.rb_rebalances <- rb.rb_rebalances + 1;
                  rb.rb_segs_moved <-
                    rb.rb_segs_moved + Partition_map.moved base pmap';
                  maps.(b + rebalance_lag) <- pmap';
                  span_since obs sh.sh_pre_lat Obs.Latency.Rebalance
                    ~phase:"rebalance" ~batch:b ts0
              | None ->
                  (* Propagate the kept map so every batch's slot holds
                     its published version. *)
                  maps.(b + rebalance_lag) <- base
            end
        | None -> ());
        Sync.Watermark.publish sh.sh_pre_done b;
        if b = r.n_batches - 1 then sh.sh_pre_complete <- R.now ()
      end
    done

  let cc_loop t r sh cc =
    let bs = t.config.Config.batch_size in
    let n = Array.length r.wrapped in
    let gpart = (sh.sh_id * t.config.Config.cc_threads) + cc.cc_part in
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
          (fun idx ->
            cc_apply_owned t r cc ~gpart ~batch:b ~idx r.wrapped.(idx))
          routed
      end
      else begin
        let lo = b * bs and hi = min n ((b + 1) * bs) - 1 in
        for idx = lo to hi do
          cc_scan_txn t r sh cc r.wrapped.(idx)
        done
      end;
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

  (* --- Execution phase (§3.3) --- *)

  type exec_thread = {
    ex_me : int; (* index in the shard's pool: the striping *)
    (* Global exec id: progress counters and ready queues are indexed
       across all shards (a filler on one shard can wake a parked reader
       on another). *)
    ex_gid : int;
    (* The running attempt's writes by write-set entry ([None]: not
       written yet). Thread-private; reset at the start of each attempt,
       grown to the largest write set seen. *)
    mutable ex_writes : Value.t option array;
    mutable committed : int;
    mutable logic_aborts : int;
    (* Telemetry counters that only feed the [--json] extras
       ([dep_blocks], [steals], [exec_retry_scans] — passes over the
       thread's blocked list — and [wakeups] this thread pushed as a
       filler): one {!Obs.Metrics.shard} per thread, merged at the
       barrier. Charged stats ([committed], [logic_aborts]) stay plain
       fields. *)
    es_ms : Obs.Metrics.shard;
    (* Observability: the event track and the latency recorder. *)
    ex_obs : Obs.Buf.t option;
    ex_lat : Obs.Latency.t option;
    (* This thread's live parked registrations (txn index, the waiter
       record, the version it waits on). The wait loop polls them for
       opportunistic self-service: the claim token makes "the filler
       pushes a wakeup" and "the owner notices the fill first" race
       safely, so an owner that is idle anyway can watch the version's
       data line (a cached read until the fill changes it) and pick its
       transaction up without waiting for the queue round-trip.
       Thread-private; reset each batch. *)
    mutable ex_parked : (int * V.waiter * wrapped V.t) list;
  }

  (* CC's stamp at encoded entry [enc] of [w], one charged read. CC
     finishes a batch before execution of it begins, so it is set. *)
  let stamp t w enc =
    let v = R.Cell.get w.refs.(enc) in
    assert (v != t.no_version);
    v

  (* The version a read of [k] resolves to, where [enc] is [fp_find w k]
     (-1: undeclared). *)
  let resolve_version t w k enc =
    R.work read_resolve_work;
    (* A key in the write set reads its own predecessor version (the
       placeholder's prev); otherwise the CC annotation (if on) or a chain
       walk from the cached head locates the visible version. *)
    let n_rs = Array.length w.txn.Txn.read_set in
    match enc with
    | -1 ->
        invalid_arg
          (Printf.sprintf "Bohm: read of undeclared key %s" (Key.to_string k))
    | enc when enc >= n_rs -> (
        match V.prev (stamp t w enc) with
        | Some prev -> prev
        | None -> assert false (* placeholders always have a prev *))
    | i when t.config.Config.read_annotation -> stamp t w i
    | _ -> (
        let head = R.Cell.get (slot_for t w k) in
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
    | None -> (
        match V.producer v with
        | Some producer -> raise (Blocked_on (k, v, producer))
        | None -> assert false (* bulk-loaded versions carry data *))

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
     out of cache, so its cost shrinks as the frontier advances. *)
  let find_unfilled t w =
    let n_rs = Array.length w.txn.Txn.read_set in
    let n = n_rs + Array.length w.txn.Txn.write_set in
    if Array.length w.inputs <> n then w.inputs <- Array.make n t.no_version;
    let rec scan i =
      if i >= n then None
      else begin
        let v =
          let v = w.inputs.(i) in
          if v != t.no_version then v
          else begin
            let k = key_at w.txn i in
            let v = resolve_version t w k (fp_find w k) in
            w.inputs.(i) <- v;
            v
          end
        in
        if R.Cell.get (V.data_cell v) <> None then begin
          if w.input_frontier < i + 1 then w.input_frontier <- i + 1;
          scan (i + 1)
        end
        else
          match V.producer v with
          | Some producer -> Some (key_at w.txn i, v, producer)
          | None -> assert false (* bulk-loaded versions carry data *)
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
        let v = stamp t w (n_rs + j) in
        let value =
          let chosen =
            match outcome with Txn.Commit -> writes.(j) | Txn.Abort -> None
          in
          match chosen with
          | Some value -> value
          | None -> (
              match V.prev v with
              | Some prev -> read_version_data t k prev
              | None -> assert false)
        in
        R.copy ~bytes:(Store.record_bytes t.store k);
        R.Cell.set (V.data_cell v) (Some value))
      w.txn.Txn.write_set

  let claim w = R.Cell.cas w.state st_unprocessed st_executing
  let release w = R.Cell.set w.state st_unprocessed

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
    let wt =
      V.make_waiter ~owner:ex.ex_gid
        ~batch:(w.seq / t.config.Config.batch_size)
        ~index:w.seq
    in
    (* [bv] is [dep]'s placeholder for [key], so [key] is in [dep]'s write
       set and the footprint map gives its write-set slot in one probe. *)
    let bit =
      let n_rs = Array.length dep.txn.Txn.read_set in
      match fp_find dep key with
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
      if s = st_complete then true
      else if s <> st_executing || budget = 0 then false
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

  (* One non-blocking pass at driving [w] to completion (§3.3.1): claim it,
     attempt it, and on a dependency block release it — so any thread can
     pick it up — and help the dependency (recursively, to bounded depth).
     Reports the blocking transaction so the caller can avoid re-running
     [w]'s logic before the dependency has resolved. On the wakeup path
     the claim is preceded by the input-readiness scan, so a blocked
     transaction is detected — and parked — without claim traffic or a
     wasted logic dispatch; the logic runs once, when its inputs are
     known filled. *)
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
                let v = stamp t w (n_rs + j) in
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
      R.work exec_dispatch_work;
      let ctx =
        {
          Txn.read =
            (fun k ->
              let enc = fp_find w k in
              match if enc >= n_rs then writes.(enc - n_rs) else None with
              | Some value -> value
              | None -> read_version_data t k (resolve_version t w k enc));
          write =
            (fun k value ->
              let enc = fp_find w k in
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
      R.Cell.set w.state st_complete;
      (match ex.ex_lat with
      | None -> ()
      | Some lat ->
          (* The four-phase decomposition of this transaction's life:
             run start → CC published its batch (cc_wait) → first claimed
             attempt (queue_wait) → this attempt (dep_stall) → complete
             (exec), against this thread's shard's publication stamps. *)
          let t1 = R.now_ns () in
          let b = w.seq / t.config.Config.batch_size in
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

  and try_advance t r sh ex ~depth ~mine w =
    let rec go retries =
      let s = R.Cell.get w.state in
      if s = st_complete then Done
      else if s = st_executing || depth > 32 then Busy
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
                      ~batch:(w.seq / t.config.Config.batch_size)
                  end;
                  Done
              | Some blocked ->
                  release w;
                  (* Arm the readiness scan for every later pass at [w]. *)
                  (if Array.length w.inputs = 0 then
                     let n =
                       Array.length w.txn.Txn.read_set
                       + Array.length w.txn.Txn.write_set
                     in
                     w.inputs <- Array.make n t.no_version);
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
      if retries < 12 && R.Cell.get dep.state = st_complete then
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
    let bs = t.config.Config.batch_size in
    let k = t.config.Config.exec_threads in
    let wrapped = r.wrapped in
    let n = Array.length wrapped in
    let me = ex.ex_me in
    let my_home w = w.home = sh.sh_id in
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
      let lo = b * bs and hi = min n ((b + 1) * bs) - 1 in
      (* Work stealing across assignments (§3.3.1: "other threads are
         allowed to execute transactions assigned to i"): pick up any
         transaction still unprocessed — typically ones queued behind a
         long read-only transaction on another thread. Both modes run one
         pass before leaving the batch; the wakeup path additionally runs
         it on quiet waiting passes, so a thread whose own stripe is parked
         helps drive the head of the dependency chain instead of idling —
         the useful half of what the retry path's forced re-polling does,
         without re-running logic already known to be blocked. *)
      let steal_pass ~bounded =
        let advanced = ref false in
        let scanning = ref true in
        let try_steal w =
          if R.Cell.get w.state = st_unprocessed then
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
          let w = wrapped.(lo + !s) in
          (* Foreign-home transactions are another shard's to run: skip
             them without reading their state (host check), and count them
             into the prefix — "nothing for this shard to steal below". *)
          if my_home w then begin
            try_steal w;
            if !prefix_open then
              if R.Cell.get w.state = st_complete then prefix := !s + 1
              else prefix_open := false
          end
          else if !prefix_open then prefix := !s + 1;
          incr s
        done;
        if !prefix > base then ignore (R.Cell.cas cur base !prefix);
        !advanced
      in
      (match r.queues with
      | None ->
          (* Retry-polling mode. First pass over the transactions this
             thread is responsible for; blocked ones go to a retry list
             instead of stalling the thread ("T is later picked up by an
             execution thread", §3.3.1). Each retry entry remembers the
             dependency that blocked it so logic is not re-run before that
             dependency resolves. *)
          let pending = ref [] in
          let note w = function
            | Done -> ()
            | Busy -> pending := (w, None) :: !pending
            | Blocked_by dep -> pending := (w, Some dep) :: !pending
            | Parked -> assert false (* wakeups are off *)
          in
          (* Retry parked transactions whose blocking dependency has
             resolved; with [force] also the ones still apparently
             blocked. *)
          let sweep ~force =
            Obs.Metrics.incr ex.es_ms Obs.Metrics.exec_retry_scans;
            instant ex.ex_obs ~name:"retry_scan" ~batch:b;
            let progressed = ref false in
            pending :=
              List.filter_map
                (fun (w, dep) ->
                  match dep with
                  | Some d when (not force) && R.Cell.get d.state <> st_complete
                    ->
                      Some (w, dep)
                  | _ -> (
                      match try_advance t r sh ex ~depth:0 ~mine:true w with
                      | Done ->
                          progressed := true;
                          None
                      | Busy -> Some (w, None)
                      | Blocked_by d -> Some (w, Some d)
                      | Parked -> assert false))
                !pending;
            !progressed
          in
          let idx = ref (lo + me) in
          while !idx <= hi do
            let w = wrapped.(!idx) in
            if my_home w then begin
              note w (try_advance t r sh ex ~depth:0 ~mine:true w);
              (* Keep dependency chains moving: anything whose dependency
                 has since completed is finished before taking on new
                 work. *)
              if !pending <> [] then ignore (sweep ~force:false)
            end;
            idx := !idx + k
          done;
          (* Drain the retry list with exponential back-off: a thread whose
             whole list is blocked on another thread's in-flight transaction
             stops burning (simulated and real) cycles re-polling it. The
             force sweep makes an all-blocked pass re-execute every entry's
             logic against the same unfilled versions. That costs little
             here: this is the live path only below [park_min_execs], where
             re-running blocked logic against lines already in the
             retrier's cache is cheaper than a park/wake hand-off (see the
             driver). *)
          let backoff = Sync.Backoff.create () in
          while !pending <> [] do
            if sweep ~force:false || sweep ~force:true then
              Sync.Backoff.reset backoff
            else Sync.Backoff.once backoff
          done
      | Some queues ->
          (* Wakeup mode: blocked transactions park a waiter on the version
             they need and are re-delivered through this thread's ready
             queue by whichever thread fills it — one re-attempt per
             resolved dependency instead of polling. The bookkeeping below
             is host-side and uncharged: [done_mark]/[remaining] track
             which of this thread's own stripe has been seen complete
             (guarding against double counts from stale wakeups), [busy]
             holds transactions last seen claimed by another thread — the
             one state with nobody obliged to notify us, so it is the one
             list still polled. *)
          ex.ex_parked <- [];
          let span = hi - lo in
          let done_mark = Array.make (span + 1) false in
          let remaining = ref 0 in
          let off = ref me in
          while !off <= span do
            if my_home wrapped.(lo + !off) then incr remaining;
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
                  && my_home wrapped.(idx)
                  && not done_mark.(o)
                then begin
                  done_mark.(o) <- true;
                  decr remaining
                end
            | Busy -> busy := idx :: !busy
            | Parked | Blocked_by _ -> ()
          in
          (* Drive any transaction by run index — wakeups can deliver
             stolen or earlier-batch transactions too; [note] ignores those
             for this batch's accounting. *)
          let drive idx =
            note idx
              (try_advance t r sh ex ~depth:0
                 ~mine:(idx mod bs mod k = me && my_home wrapped.(idx))
                 wrapped.(idx))
          in
          let drain_queue () =
            match Sync.Mpsc.drain queues.(ex.ex_gid) with
            | [] -> false
            | ready ->
                List.iter drive ready;
                true
          in
          (* Opportunistic self-service of parked registrations: watch
             the blocking versions' data lines (cached reads while
             unchanged) and race the filler for the claim token the
             moment one fills. Winning means no wakeup is coming — drive
             the transaction here; losing (or finding the token consumed)
             means a wakeup is queued, so just drop the watch. *)
          let poll_parked () =
            match ex.ex_parked with
            | [] -> false
            | entries ->
                (* Partition first, drive after: a drive can re-park its
                   transaction, which appends to [ex_parked] — mutating
                   the list mid-iteration would lose that entry (and with
                   it the transaction). *)
                let ready = ref [] and kept = ref [] in
                List.iter
                  (fun ((idx, (wt : V.waiter), bv) as entry) ->
                    if R.Cell.get wt.V.w_claimed = 1 then
                      (* Token consumed: the filler either completed the
                         transaction itself (continuation helping — no
                         push in that case, this poll is the owner's
                         notification), queued a push (re-drive is
                         claim-protected), or is mid-drive ([drive]
                         files it on the busy list). *)
                      ready := idx :: !ready
                    else if R.Cell.get (V.data_cell bv) = None then
                      kept := entry :: !kept
                    else begin
                      (* Fill observed before any wakeup: race the filler
                         for the token; whoever wins, the transaction is
                         ready to re-attempt now. *)
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
            if my_home wrapped.(!idx) then begin
              drive !idx;
              (* Serve wakeups between dispatches to keep dependency
                 chains moving, mirroring the retry path's mid-pass
                 sweep. *)
              ignore (drain_queue ())
            end;
            idx := !idx + k
          done;
          (* Wait out the stripe: every incomplete own transaction is
             either on the busy list (claimed elsewhere — polled) or parked
             with a wakeup guaranteed to arrive on our queue. A quiet pass
             helps the batch through one steal scan, then charges one
             capped back-off. *)
          let backoff = Sync.Backoff.create () in
          while !remaining > 0 do
            let progressed = drain_queue () in
            let progressed = poll_parked () || progressed in
            let progressed = poll_busy () || progressed in
            let progressed = progressed || steal_pass ~bounded:true in
            if progressed then Sync.Backoff.reset backoff
            else Sync.Backoff.once backoff
          done);
      ignore (steal_pass ~bounded:false);
      (* Per-thread commit delta for this batch; the timeline sums the
         instants across execution tracks. *)
      instant ex.ex_obs ~name:"batch_commit" ~batch:b
        ~value:(ex.committed - c0);
      span_end ex.ex_obs;
      R.Cell.set r.exec_progress.(ex.ex_gid) (b + 1);
      if me = 0 then begin
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

  (* --- Driver --- *)

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
     thread. Commit is the per-batch vote round in [exec_loop], which a
     single shard skips. *)
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
    let wrapped = Array.mapi (wrap t) txns in
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
    let cc = spawn m cc_loop cc_threads in
    let exec = spawn k exec_loop exec_threads in
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
    rebal_metrics sheet
      (List.filter_map (fun sh -> sh.sh_rebal) (Array.to_list r.shards));
    Stats.make ~txns:n
      ~committed:(sum (fun ex -> ex.committed) exec_threads)
      ~logic_aborts:(sum (fun ex -> ex.logic_aborts) exec_threads)
      ~cc_aborts:0 ~elapsed ~latency
      ~extra:(Obs.Metrics.to_extra sheet) ()

  (* --- Inspection --- *)

  (* Post-quiescence chain audit: BOHM stamps both begin and end times, so
     every link is checked — strict timestamp descent, end = successor's
     begin, head never invalidated, and (the §3.3.1 guarantee) no
     placeholder left unfilled. Runs uncharged on the driver thread after
     [run] has joined the workers. *)
  let check_chains t report =
    let shards = t.config.Config.shards in
    let m = t.config.Config.cc_threads in
    (* When the last run rebalanced adaptively, a key's legal slab owner
       is per-batch: the global partition id its shard's map version
       assigned at that batch. The audit then checks each entry against
       the map pinned to the entry's batch instead of the
       one-owner-per-chain discipline. *)
    let owner_of_key k =
      if Array.length t.pmap_log = 0 then None
      else
        let s = if shards = 1 then 0 else Key.shard_of ~shards k in
        let maps = t.pmap_log.(s) in
        let last = Array.length maps - 1 in
        let h = Key.hash k in
        Some
          (fun b ->
            (s * m) + Partition_map.partition_of_hash maps.(min b last) h)
    in
    R.without_cost (fun () ->
        Store.iter t.store (fun k slot ->
            let rec entries v acc =
              let e =
                Bohm_analysis.Chain.entry ~begin_ts:(V.begin_ts v)
                  ~end_ts:(Some (V.get_end_ts v))
                  ~filled:(R.Cell.get (V.data_cell v) <> None)
                  ~dangling_waiters:(V.unclaimed_waiters v)
                  ?slab:(V.slab_coord v) ?batch:(V.slab_batch v) ()
              in
              match V.prev v with
              | None -> List.rev (e :: acc)
              | Some older -> entries older (e :: acc)
            in
            Bohm_analysis.Chain.check_key report ?owner_of:(owner_of_key k) k
              (entries (R.Cell.get slot) [])))

  (* Fault injection for the sanitizer's mutation tests: clear the newest
     version's data for [k], simulating an execution thread that claimed
     the producing transaction but never ran [install] — the dropped
     declared write / unfilled placeholder the §3.3.1 copy-forward rule
     normally makes impossible, and exactly what the chain audit exists to
     catch. Never called outside tests. *)
  let inject_lost_fill t k =
    R.without_cost (fun () ->
        R.Cell.set (V.data_cell (R.Cell.get (Store.get t.store k))) None)

  (* Fault injection for the sanitizer's mutation tests: rewire the newest
     version of [k]'s prev link to the newest version of [donor] — a
     cross-partition (hence cross-owner, cross-slab) pointer the
     bump-allocation discipline makes impossible, modelling arena
     corruption (a stale or miscomputed slab index). Only the slab-aware
     chain audit can see it. Never called outside tests. *)
  let inject_cross_slab_prev t k ~donor =
    R.without_cost (fun () ->
        let v = R.Cell.get (Store.get t.store k) in
        let d = R.Cell.get (Store.get t.store donor) in
        V.unsafe_set_prev v (Some d))

  (* Fault injection for the sanitizer's mutation tests: register a waiter
     record on the newest version of [k] and never wake it, simulating a
     filler that sealed without draining (or never sealed) — the lost
     wakeup the dangling-waiter audit exists to catch. Requires the head's
     list to be unsealed (head was filled without waiter traffic, the
     common quiescent state). Never called outside tests. *)
  let inject_dangling_waiter t k =
    R.without_cost (fun () ->
        let v = R.Cell.get (Store.get t.store k) in
        match V.register_waiter v (V.make_waiter ~owner:0 ~batch:0 ~index:0) with
        | `Registered -> ()
        | `Sealed ->
            invalid_arg "Bohm: inject_dangling_waiter: head version sealed")

  let read_latest t k =
    let head = R.Cell.get (Store.get t.store k) in
    let rec newest v =
      match R.Cell.get (V.data_cell v) with
      | Some value -> value
      | None -> (
          match V.prev v with
          | Some prev -> newest prev
          | None -> raise Not_found)
    in
    newest head

  let chain_length t k = V.chain_length (R.Cell.get (Store.get t.store k))

  let inject_lost_vote t ~shard ~batch =
    if shard < 0 || shard >= t.config.Config.shards then
      invalid_arg "Bohm: inject_lost_vote: shard out of range";
    if batch < 0 then invalid_arg "Bohm: inject_lost_vote: negative batch";
    t.lost_vote <- Some (shard, batch)

  let vote_log t = t.votes_log
end

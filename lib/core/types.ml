(* The records BOHM's pipeline stages share: the per-transaction wrapper,
   the engine, one shard's pipeline state, the run-global state and the CC
   and execution thread states, with the work charges, cell and
   telemetry helpers every stage uses. No interface: it would restate
   every record. *)

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
  module Key = Bohm_txn.Key
  module Value = Bohm_txn.Value
  module Txn = Bohm_txn.Txn
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
       update only costs a (charged) re-read. [[||]] until the
       transaction first blocks, which arms the scan. *)
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
       (= [Key.hash k mod m]), the one key -> partition rule of every CC
       path; preprocessing worker 0 overwrites later slots when a
       rebalance publishes. Each shard rebalances its own map from its own
       measured occupancy — shard key spaces are disjoint, so there is
       nothing to coordinate between the per-shard rebalancers. *)
    sh_maps : Partition_map.t array;
    sh_rebal : Rebalancer.t option;
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
       lives. [None]: the retry discipline (see [park_min_execs] in the
       driver). The registration signal is per-producer — the [waited]
       mask on the wrapper — not global: registrants already know the
       blocking transaction, and a per-wrapper mask keeps signal traffic
       off a single hot line. *)
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

  (* A cell read and written across threads with no other ordering: marked
     as a synchronization location for the race tracer. *)
  let sync_cell v =
    let c = R.Cell.make v in
    R.Cell.mark_sync c;
    c

  (* Does shard [s] own key [k]? Host-side, uncharged. *)
  let owns s k = s.sh_n = 1 || Key.shard_of ~shards:s.sh_n k = s.sh_id

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
end

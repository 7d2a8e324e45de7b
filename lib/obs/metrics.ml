(* Typed metrics: the single producer of the [Stats.extra] key/value
   surface. A counter is a slot in every per-thread [shard] (an int
   array, single-writer, host-side only — never charged); a gauge is a
   key the driver sets once on the run's [sheet]. The keys' meanings are
   documented in metrics.mli. *)

type counter = { id : int; name : string }
type gauge = string

(* Slots are assigned at module initialization, before any shard is
   made; [counter] is not exported. *)
let n_counters = ref 0

let counter name =
  let id = !n_counters in
  incr n_counters;
  { id; name }

let gc_collected = counter "gc_collected"
let dep_blocks = counter "dep_blocks"
let steals = counter "steals"
let exec_retry_scans = counter "exec_retry_scans"
let wakeups = counter "wakeups"
let slabs_opened = "slabs_opened"
let slabs_retired = "slabs_retired"
let cc_batch0_start_us = "cc_batch0_start_us"
let pre_complete_us = "pre_complete_us"
let cross_shard_txns = "cross_shard_txns"
let shard_votes = "shard_votes"
let rebalances = "rebalances"
let segs_moved = "segs_moved"
let cc_imbalance_max = "cc_imbalance_max"
let cc_imbalance_mean = "cc_imbalance_mean"
let cc_occ_p j = Printf.sprintf "cc_occ_p%d" j
let counter_faa = counter "counter_faa"
let version_steps = counter "version_steps"
let ww_aborts = counter "ww_aborts"
let validation_aborts = counter "validation_aborts"
let dep_aborts = counter "dep_aborts"
let read_validation_aborts = counter "read_validation_aborts"
let read_retries = counter "read_retries"
let locks_acquired = counter "locks_acquired"
let read_stamps = counter "read_stamps"
let reader_induced_aborts = counter "reader_induced_aborts"
let wait_aborts = counter "wait_aborts"

type shard = int array

let shard () = Array.make !n_counters 0
let add sh c v = sh.(c.id) <- sh.(c.id) + v
let incr sh c = add sh c 1
let total c shards = List.fold_left (fun acc sh -> acc + sh.(c.id)) 0 shards

(* Newest first; [to_extra] restores the order. *)
type sheet = { mutable rev : (string * float) list }

let collect ~select shards =
  {
    rev =
      List.rev_map (fun c -> (c.name, float_of_int (total c shards))) select;
  }

let set sheet g v = sheet.rev <- (g, v) :: sheet.rev
let seti sheet g v = set sheet g (float_of_int v)
let to_extra sheet = List.rev sheet.rev

(* Every constant paired with its default, so [defaults] restores exactly
   the values written once below. *)
let registered = ref []

let cost default =
  let r = ref default in
  registered := (r, default) :: !registered;
  r

let cache_hit = cost 4
let dram_read = cost 100
let coherence_read = cost 200
let store_owned = cost 8
let dram_write = cost 120
let line_transfer = cost 450
let atomic_rmw = cost 45
let relax_base = cost 25
let bytes_per_cycle = cost 1
let spawn_cost = cost 2_000
let recency_window = cost 30_000
let cc_routed_dispatch = cost 6
let cc_route_append = cost 2
let cc_route_merge = cost 3
let cc_insert_recycled = cost 24
let cc_insert_slab = cost 6
let cc_rebalance = cost 400
let slab_retire = cost 60
let exec_waiter_register = cost 25
let exec_wake_push = cost 15
let exec_park = cost 10
let shard_route = cost 40
let shard_vote = cost 300

let cycles_per_second = 2.0e9

let defaults () = List.iter (fun (r, default) -> r := default) !registered

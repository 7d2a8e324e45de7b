(* Post-run inspection of a BOHM database: the chain audit, the reads that
   look at the newest versions, and the fault injections the sanitizer's
   mutation tests use. Everything here runs on the driver thread after
   [run] has joined the workers. *)

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  open T

  (* Post-quiescence chain audit: BOHM stamps both begin and end times, so
     every link is checked — strict timestamp descent, end = successor's
     begin, head never invalidated, and (the §3.3.1 guarantee) no
     placeholder left unfilled. Runs uncharged. *)
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

  let inject_lost_vote t ~shard ~batch =
    if shard < 0 || shard >= t.config.Config.shards then
      invalid_arg "Bohm: inject_lost_vote: shard out of range";
    if batch < 0 then invalid_arg "Bohm: inject_lost_vote: negative batch";
    t.lost_vote <- Some (shard, batch)

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
end

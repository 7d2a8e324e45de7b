module Key = Bohm_txn.Key

type entry = {
  begin_ts : int;
  end_ts : int option;
  filled : bool;
  dangling_waiters : int;
  slab : (int * int * int) option;
  batch : int option;
}

let infinity_ts = max_int

let entry ?(dangling_waiters = 0) ?slab ?batch ~begin_ts ~end_ts ~filled () =
  { begin_ts; end_ts; filled; dangling_waiters; slab; batch }

(* Slab-arena discipline between a version and its predecessor, when both
   are slab-allocated: one key's versions all come from its partition's
   owning CC thread, allocation order follows chain order, so along a
   chain the slab sequence numbers never increase toward older versions
   and entry indices strictly decrease within one slab. A violation is a
   corrupt prev link (stale or miscomputed slab index), and the timestamp
   checks are skipped for that pair — the stamps read through a bogus
   link describe some other chain's version, so reporting them would just
   shadow the root cause.

   Under adaptive CC repartitioning ([mapped]) a key's chain may
   legitimately cross arenas — the key moved partitions between batches —
   so the one-owner rule is replaced by the absolute per-entry check of
   [entry_owner_violation] plus what the allocation discipline still
   guarantees: two same-batch entries share one owner, and within one
   owner's run of the chain the sequence/bump order still holds. *)
let cross_slab_violation ~mapped newer older =
  match (newer.slab, older.slab) with
  | Some (n_owner, n_seq, n_idx), Some (o_owner, o_seq, o_idx) ->
      if o_owner <> n_owner then
        if not mapped then
          Some
            (Printf.sprintf
               "prev link crosses arenas: slab (owner %d, seq %d, idx %d) -> \
                (owner %d, seq %d, idx %d)"
               n_owner n_seq n_idx o_owner o_seq o_idx)
        else if newer.batch <> older.batch then
          (* Legal handoff only between different batches; both entries'
             owners are checked against their own batches' maps. *)
          None
        else
          Some
            (Printf.sprintf
               "two arena owners within one batch: slab (owner %d, seq %d, \
                idx %d) -> (owner %d, seq %d, idx %d)"
               n_owner n_seq n_idx o_owner o_seq o_idx)
      else if o_seq > n_seq then
        Some
          (Printf.sprintf
             "prev link points into a newer slab: seq %d idx %d -> seq %d \
              idx %d (owner %d)"
             n_seq n_idx o_seq o_idx n_owner)
      else if o_seq = n_seq && o_idx >= n_idx then
        Some
          (Printf.sprintf
             "prev link runs against the bump order: idx %d -> idx %d in \
              slab (owner %d, seq %d)"
             n_idx o_idx n_owner n_seq)
      else None
  | _ -> None

(* The map-aware owner check ([owner_of] gives the partition the
   epoch-versioned map assigned the key at a given batch): each slab
   entry's owner must be exactly the map's assignment at the entry's
   batch. *)
let entry_owner_violation owner_of e =
  match (e.slab, e.batch) with
  | Some (owner, seq, idx), Some b ->
      let expected = owner_of b in
      if owner <> expected then
        Some
          (Printf.sprintf
             "slab entry (owner %d, seq %d, idx %d) but the batch-%d \
              partition map assigns owner %d (ts %d)"
             owner seq idx b expected e.begin_ts)
      else None
  | _ -> None

let check_key report ?owner_of k entries =
  let add kind detail = Report.add report ~key:k kind detail in
  let pair_violation = cross_slab_violation ~mapped:(Option.is_some owner_of) in
  let rec go newer = function
    | [] -> ()
    | e :: rest ->
        if not e.filled then
          add Report.Chain_unfilled
            (Printf.sprintf "version ts %d has no data" e.begin_ts);
        if e.dangling_waiters > 0 then
          add Report.Chain_dangling_waiter
            (Printf.sprintf
               "version ts %d still holds %d unclaimed waiter record(s)"
               e.begin_ts e.dangling_waiters);
        (match owner_of with
        | Some owner_of -> (
            match entry_owner_violation owner_of e with
            | Some detail -> add Report.Chain_cross_slab detail
            | None -> ())
        | None -> ());
        let corrupt_link =
          match newer with
          | None -> false
          | Some n -> (
              match pair_violation n e with
              | Some detail ->
                  add Report.Chain_cross_slab detail;
                  true
              | None -> false)
        in
        if not corrupt_link then begin
          (match newer with
          | Some n when e.begin_ts >= n.begin_ts ->
              add Report.Chain_out_of_order
                (Printf.sprintf "version ts %d not older than successor ts %d"
                   e.begin_ts n.begin_ts)
          | _ -> ());
          match (e.end_ts, newer) with
          | Some e_end, Some n when e_end <> n.begin_ts ->
              (* Invalidated by the successor: the end stamp must be exactly
                 the successor's begin stamp. *)
              add Report.Chain_end_mismatch
                (Printf.sprintf
                   "version ts %d ends at %d but successor begins at %d"
                   e.begin_ts e_end n.begin_ts)
          | Some e_end, None when e_end <> infinity_ts ->
              add Report.Chain_end_mismatch
                (Printf.sprintf "head version ts %d ends at %d, expected %d"
                   e.begin_ts e_end infinity_ts)
          | _ -> ()
        end;
        go (Some e) rest
  in
  go None entries

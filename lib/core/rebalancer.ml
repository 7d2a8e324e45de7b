(* One shard's adaptive CC repartitioning policy (epoch-versioned
   partition maps, {!Partition_map}).

   The published map version for batch [b] is [maps.(b)], an immutable
   {!Partition_map.t}; the array is pre-initialized to the static map.
   Preprocessing worker 0 computes batch [b]'s per-segment occupancy at
   the preprocessing barrier and writes the resulting map into
   [maps.(b + lag)] — batch [b+1] is already being classified under its
   published map, so the first batch that can safely consume a map
   derived from batch [b] is [b+2]. No new synchronization: worker 0
   crosses barrier [b] before any preprocessor classifies batch [b+1]
   (same barrier), hence strictly before anyone reads [maps.(b+2)], and
   CC threads only read a batch's map behind [pre_done], whose
   release/acquire edge carries worker 0's host writes.

   Hysteresis knobs (see {!Partition_map.rebalance}): rebalancing
   evaluates only on enough samples per segment that uniform noise cannot
   look like skew — small-batch test runs never reach the floor — and
   publishes only on a real measured imbalance with a real predicted
   improvement. Everything here is host-side and uncharged; the caller
   charges an actual publication. *)
let lag = 2
let threshold = 1.25
let margin = 0.05
let min_samples_per_seg = 4

(* Occupancy is accumulated host-side (uncharged) during the
   classification sweep into per-(batch, worker, segment) slots — no two
   workers share a counter — and summed by worker 0 at the batch barrier,
   which is also the only writer of the counters below. *)
type t = {
  occ : int array array array; (* batch -> pre worker -> segment *)
  occ_parts : int array; (* whole-run per-partition occupancy *)
  mutable rebalances : int;
  mutable segs_moved : int;
  mutable imb_max : float; (* max measured per-batch max/mean ratio *)
  mutable imb_sum : float;
  mutable imb_batches : int;
}

let make ~workers ~parts ~n_batches =
  let nsegs = Partition_map.segs_per_part * parts in
  {
    occ =
      Array.init (max 1 n_batches) (fun _ ->
          Array.init workers (fun _ -> Array.make nsegs 0));
    occ_parts = Array.make parts 0;
    rebalances = 0;
    segs_moved = 0;
    imb_max = 1.0;
    imb_sum = 0.;
    imb_batches = 0;
  }

let occupancy rb ~batch ~worker = rb.occ.(batch).(worker)

let measure rb maps ~batch:b =
  let nsegs = Partition_map.nsegs maps.(b) in
  let seg_load = Array.make nsegs 0 in
  Array.iter
    (fun per_worker ->
      for s = 0 to nsegs - 1 do
        seg_load.(s) <- seg_load.(s) + per_worker.(s)
      done)
    rb.occ.(b);
  let part_load = Partition_map.load_per_partition maps.(b) seg_load in
  Array.iteri
    (fun p l -> rb.occ_parts.(p) <- rb.occ_parts.(p) + l)
    part_load;
  if not (Array.exists (fun l -> l > 0) part_load) then (seg_load, None)
  else begin
    let ratio = Partition_map.imbalance part_load in
    if ratio > rb.imb_max then rb.imb_max <- ratio;
    rb.imb_sum <- rb.imb_sum +. ratio;
    rb.imb_batches <- rb.imb_batches + 1;
    (seg_load, Some ratio)
  end

let repack rb maps ~batch:b ~load =
  b + lag < Array.length maps
  &&
  let base = maps.(b + lag - 1) in
  match
    Partition_map.rebalance base ~load
      ~min_samples:(min_samples_per_seg * Partition_map.nsegs base)
      ~threshold ~margin
  with
  | Some pmap' ->
      rb.rebalances <- rb.rebalances + 1;
      rb.segs_moved <- rb.segs_moved + Partition_map.moved base pmap';
      maps.(b + lag) <- pmap';
      true
  | None ->
      (* Propagate the kept map so every batch's slot holds its published
         version. *)
      maps.(b + lag) <- base;
      false

let metrics sheet rebals =
  match rebals with
  | [] -> ()
  | hd :: _ ->
      let module M = Bohm_obs.Metrics in
      let sum f = List.fold_left (fun a rb -> a + f rb) 0 rebals in
      let occ = Array.make (Array.length hd.occ_parts) 0 in
      List.iter
        (fun rb -> Array.iteri (fun p l -> occ.(p) <- occ.(p) + l) rb.occ_parts)
        rebals;
      let batches = sum (fun rb -> rb.imb_batches) in
      let imb_sum = List.fold_left (fun a rb -> a +. rb.imb_sum) 0. rebals in
      let imb_max = List.fold_left (fun a rb -> max a rb.imb_max) 1.0 rebals in
      M.seti sheet M.rebalances (sum (fun rb -> rb.rebalances));
      M.seti sheet M.segs_moved (sum (fun rb -> rb.segs_moved));
      M.set sheet M.cc_imbalance_max imb_max;
      M.set sheet M.cc_imbalance_mean
        (if batches = 0 then 1.0 else imb_sum /. float_of_int batches);
      Array.iteri (fun p l -> M.seti sheet (M.cc_occ_p p) l) occ

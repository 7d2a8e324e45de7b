(* The per-transaction footprint: the wrapper built at sequencing time,
   its key -> entry map, the probe-once slot cache and CC's stamps. *)

module Key = Bohm_txn.Key
module Txn = Bohm_txn.Txn

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

let fp_find txn fp_enc k = fp_enc.(fp_probe txn fp_enc k)

let batch_of (c : Config.t) seq = seq / c.batch_size

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  open T

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
    let state = sync_cell Types.st_unprocessed in
    (* Written by registrants, read by the filler, with no other ordering
       in between — a synchronization cell like the claim word. *)
    let waited = sync_cell 0 in
    let shards = t.config.Config.shards in
    let owners, home =
      if shards = 1 || n_rs + n_ws = 0 then (1, 0)
      else begin
        let mask = ref 0 in
        for enc = 0 to n_rs + n_ws - 1 do
          mask := !mask lor (1 lsl Key.shard_of ~shards (key_at txn enc))
        done;
        (!mask, Key.shard_of ~shards (key_at txn 0))
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
    let c = fp_find w.txn w.fp_enc k in
    let slot = w.slots.(c) in
    if slot != t.no_slot then slot
    else begin
      let slot = Store.get t.store k in
      w.slots.(c) <- slot;
      slot
    end

  let stamp t w enc =
    let v = R.Cell.get w.refs.(enc) in
    assert (v != t.no_version);
    v
end

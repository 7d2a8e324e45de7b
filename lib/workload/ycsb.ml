module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng
module Zipf = Bohm_util.Zipf

type profile = { rmws : int; reads : int }

let rmw_profile n =
  if n <= 0 then invalid_arg "Ycsb.rmw_profile: n must be positive";
  { rmws = n; reads = 0 }

let mixed_profile ~rmws ~reads =
  if rmws < 0 || reads < 0 || rmws + reads = 0 then
    invalid_arg "Ycsb.mixed_profile: need a non-empty profile";
  { rmws; reads }

let table ~rows ~record_bytes =
  Table.make ~tid:0 ~name:"usertable" ~rows ~record_bytes

let tables ~rows ~record_bytes = [| table ~rows ~record_bytes |]
let initial_value _ = Value.zero

(* Popularity rank -> row id scattering. Without it the hottest record
   would be row 0, i.e. always the lexicographically first lock a
   transaction acquires, which distorts 2PL hold times; real YCSB key
   popularity is uncorrelated with key order. A multiplicative bijection
   mod [rows] preserves the Zipfian distribution while scattering ranks. *)
let scatter_row ~rows =
  let rec coprime p = if Int.rem rows p = 0 then coprime (p + 2) else p in
  let p = coprime 1_000_003 in
  fun rank -> Int.rem ((rank * p) + 17) rows

(* [n] distinct rows, Zipfian-distributed. Rejection keeps the footprint
   duplicate-free as the paper requires; footprints (<= 10) are tiny
   relative to the table so this terminates fast even at theta = 0.9. *)
let zipf_rows zipf rng n =
  let scatter = scatter_row ~rows:(Zipf.n zipf) in
  Rng.distinct n (fun _ -> Some (scatter (Zipf.sample zipf rng)))

let key row = Key.make ~table:0 ~row

(* The first [rmws] rows are read-modify-writes, the rest pure reads. *)
let update_txn ~rmws id rows =
  let rmw_keys = Array.map key (Array.sub rows 0 rmws) in
  let read_keys = Array.map key (Array.sub rows rmws (Array.length rows - rmws)) in
  let rmw_list = Array.to_list rmw_keys in
  let read_list = Array.to_list read_keys in
  Txn.make ~id ~read_set:(rmw_list @ read_list) ~write_set:rmw_list (fun ctx ->
      Array.iter (fun k -> ctx.Txn.write k (Value.add (ctx.Txn.read k) 1)) rmw_keys;
      Array.iter (fun k -> ignore (ctx.Txn.read k)) read_keys;
      Txn.Commit)

(* Each transaction is built as soon as its rows are drawn, so no draw
   outlives its transaction. *)
let update_rows ~rows ~theta ~count ~seed profile build =
  let zipf = Zipf.create ~n:rows ~theta in
  let rng = Rng.create ~seed in
  Array.init count (fun id ->
      build id (zipf_rows zipf rng (profile.rmws + profile.reads)))

let generate ~rows ~theta ~count ~seed profile =
  update_rows ~rows ~theta ~count ~seed profile (update_txn ~rmws:profile.rmws)

let generate_sharded ~rows ~theta ~count ~seed ~shards ~cross_fraction profile
    =
  if shards <= 0 then
    invalid_arg "Ycsb.generate_sharded: shards must be positive";
  if cross_fraction < 0. || cross_fraction > 1. then
    invalid_arg "Ycsb.generate_sharded: cross_fraction out of range";
  let zipf = Zipf.create ~n:rows ~theta in
  let scatter = scatter_row ~rows in
  let rng = Rng.create ~seed in
  let n = profile.rmws + profile.reads in
  Array.init count (fun id ->
      let home = Rng.int rng shards in
      let cross = shards > 1 && n > 1 && Rng.float rng 1.0 < cross_fraction in
      let targets = Array.make n home in
      if cross then begin
        let remote = (home + 1 + Rng.int rng (shards - 1)) mod shards in
        (* Slot 0 stays home — the engine homes a transaction on its first
           footprint entry — the last slot is forced remote so the
           transaction is certainly cross-shard, the rest flip a coin. *)
        for i = 1 to n - 2 do
          if Rng.int rng 2 = 1 then targets.(i) <- remote
        done;
        targets.(n - 1) <- remote
      end;
      (* One more rejection layered on the Zipfian draw: slot [i] must land
         on shard [targets.(i)]. With [shards] well below [rows] every shard
         owns a dense slice of the row space, so acceptance stays
         ~1/shards. *)
      update_txn ~rmws:profile.rmws id
        (Rng.distinct n (fun i ->
             let row = scatter (Zipf.sample zipf rng) in
             if Key.shard_of ~shards (key row) = targets.(i) then Some row
             else None)))

(* Time-varying "flash crowd": a tight hot set of [hot_keys] rows
   receives [hot_frac] of all {e read} draws, and the hot set jumps to a
   different region of the row space [phases] times over the run (one
   jump every [count / phases] transactions). Writes stay uniform over
   the whole table — everyone reads the items of the hour, few update
   them — which also makes the workload a clean CC stressor: the read
   flood piles footprint entries (annotation and dispatch work) onto the
   partitions owning the hot keys' segments, while execution keeps its
   parallelism (versioned reads never block, and the uniform writes build
   no deep dependency chains).

   Hot rows are chosen by {e hash class}, not contiguously: phase [p]'s
   hot set is the first [hot_keys] rows at or after the phase base whose
   [Key.hash] is congruent to [p] modulo 8. BOHM's static assignment
   sends segment [hash mod 8m] to partition [seg mod m], so these rows
   occupy segments [p, p+8, p+16, ...] — which the static map piles onto
   the {e single} partition [p mod m] whenever [m] divides 8 (the engine
   uses 8 segments per partition). This is the adversarial-but-ordinary
   case a load-oblivious hash cannot rule out and adaptive repartitioning
   exists for: the whole flash crowd lands on one CC thread, every batch
   runs at that thread's pace, and each phase jump re-pins the crowd to a
   different partition, invalidating any one-shot manual fix. A
   load-measuring rebalancer sees m independently movable hot segments
   and can spread them evenly. Cold reads may land in the hot set; that
   only sharpens it. Deterministic in [seed]. *)
let generate_flash_crowd ~rows ~count ~seed ?(phases = 4) ?(hot_keys = 8)
    ?(hot_frac = 0.75) profile =
  if phases <= 0 then invalid_arg "Ycsb.generate_flash_crowd: phases";
  if hot_keys <= 0 || hot_keys >= rows then
    invalid_arg "Ycsb.generate_flash_crowd: hot_keys out of range";
  if hot_frac < 0. || hot_frac > 1. then
    invalid_arg "Ycsb.generate_flash_crowd: hot_frac out of range";
  let n = profile.rmws + profile.reads in
  if hot_frac = 1. && hot_keys < profile.reads then
    invalid_arg "Ycsb.generate_flash_crowd: hot set smaller than read set";
  let stride = max 1 (rows / phases) in
  let hot_sets =
    Array.init phases (fun p ->
        let set = Array.make hot_keys (-1) in
        let found = ref 0 and off = ref 0 in
        while !found < hot_keys && !off < rows do
          let row = ((p * stride) + !off) mod rows in
          if Key.hash (Key.make ~table:0 ~row) mod 8 = p mod 8 then begin
            set.(!found) <- row;
            incr found
          end;
          incr off
        done;
        if !found < hot_keys then
          invalid_arg "Ycsb.generate_flash_crowd: hot_keys too large for rows";
        set)
  in
  let rng = Rng.create ~seed in
  let phase_len = max 1 ((count + phases - 1) / phases) in
  Array.init count (fun id ->
      let hot = hot_sets.(min (phases - 1) (id / phase_len)) in
      (* Slots [0, rmws) are the RMWs: always cold. The hot/cold coin is
         re-flipped on every rejection so the sampler terminates even with
         a hot set smaller than the read set. *)
      update_txn ~rmws:profile.rmws id
        (Rng.distinct n (fun i ->
             Some
               (if i >= profile.rmws && Rng.float rng 1.0 < hot_frac then
                  hot.(Rng.int rng hot_keys)
                else Rng.int rng rows))))

let read_only_txn id rows =
  let keys = Array.map key rows in
  Txn.make ~id ~read_set:(Array.to_list keys) ~write_set:[] (fun ctx ->
      Array.iter (fun k -> ignore (ctx.Txn.read k)) keys;
      Txn.Commit)

let scan_rows rng ~rows ~scan = Array.init scan (fun _ -> Rng.int rng rows)

let generate_read_only ~rows ~scan ~count ~seed =
  let rng = Rng.create ~seed in
  Array.init count (fun id -> read_only_txn id (scan_rows rng ~rows ~scan))

type mix_draw = Scan of int array | Update of int array

let mix_rows ~rows ~read_only_fraction ~scan ~update_profile ~theta ~count
    ~seed build =
  if read_only_fraction < 0. || read_only_fraction > 1. then
    invalid_arg "Ycsb.generate_mix: fraction out of range";
  let zipf = Zipf.create ~n:rows ~theta in
  let rng = Rng.create ~seed in
  Array.init count (fun id ->
      build id
        (if Rng.float rng 1.0 < read_only_fraction then
           Scan (scan_rows rng ~rows ~scan)
         else
           Update
             (zipf_rows zipf rng (update_profile.rmws + update_profile.reads))))

let generate_mix ~rows ~read_only_fraction ~scan ~update_profile ~theta ~count
    ~seed =
  mix_rows ~rows ~read_only_fraction ~scan ~update_profile ~theta ~count ~seed
    (fun id -> function
      | Scan rows -> read_only_txn id rows
      | Update rows -> update_txn ~rmws:update_profile.rmws id rows)

let total_value read ~rows =
  let total = ref 0 in
  for row = 0 to rows - 1 do
    total := !total + Value.to_int (read (Key.make ~table:0 ~row))
  done;
  !total

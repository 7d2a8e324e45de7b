(* One immediate int: the table id in the high bits, the row in the low
   [row_bits]. Both components are non-negative and bounded, so the packed
   value is non-negative and [Int.compare] on it is the lexicographic
   (table, row) order. *)
type t = int

let row_bits = 40
let max_row = (1 lsl row_bits) - 1
let max_table = max_int lsr row_bits

let make ~table ~row =
  if table < 0 || row < 0 then invalid_arg "Key.make: negative component";
  if table > max_table || row > max_row then
    invalid_arg "Key.make: component out of range";
  (table lsl row_bits) lor row

let table t = t lsr row_bits
let row t = t land max_row
let compare = Int.compare
let equal = Int.equal

(* splitmix64-style finalizer over the (table, row) pair; cheap and well
   mixed even for dense row ids. *)
let hash t =
  let z = Int64.of_int ((table t * 0x9E3779B1) + row t) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land max_int

(* Shard map layered above the CC-partition map. Remix the hash with an
   independent multiplier (xxhash64 avalanche constant) before reducing,
   so [shard_of ~shards k] stays decorrelated from
   [hash k mod cc_threads] even when [shards] and [cc_threads] share
   factors — otherwise a shard would only ever feed a subset of its CC
   partitions. *)
let shard_of ~shards t =
  if shards <= 0 then invalid_arg "Key.shard_of: shards must be positive";
  if shards = 1 then 0
  else begin
    let z = Int64.of_int (hash t) in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 29)) 0xC2B2AE3D27D4EB4FL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 32) in
    Int64.to_int z land max_int mod shards
  end

let pp fmt t = Format.fprintf fmt "%d:%d" (table t) (row t)
let to_string t = Format.asprintf "%a" pp t

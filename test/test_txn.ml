(* Tests for Bohm_txn: keys, values, transaction construction, the local
   write buffer, and run statistics. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Local_writes = Bohm_txn.Local_writes

let k t r = Key.make ~table:t ~row:r

(* --- Key --- *)

let test_key_accessors () =
  let key = k 3 17 in
  Alcotest.(check int) "table" 3 (Key.table key);
  Alcotest.(check int) "row" 17 (Key.row key)

let test_key_order_lexicographic () =
  Alcotest.(check bool) "table dominates" true (Key.compare (k 0 999) (k 1 0) < 0);
  Alcotest.(check bool) "row breaks ties" true (Key.compare (k 1 2) (k 1 3) < 0);
  Alcotest.(check int) "equal" 0 (Key.compare (k 2 5) (k 2 5))

let test_key_equal () =
  Alcotest.(check bool) "equal" true (Key.equal (k 1 2) (k 1 2));
  Alcotest.(check bool) "differs by row" false (Key.equal (k 1 2) (k 1 3));
  Alcotest.(check bool) "differs by table" false (Key.equal (k 1 2) (k 2 2))

let test_key_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Key.make: negative component")
    (fun () -> ignore (k (-1) 0))

let test_key_hash_spreads () =
  (* Dense rows must not collide heavily in the low bits (they feed bucket
     and partition selection). *)
  let buckets = Array.make 16 0 in
  for row = 0 to 16_000 - 1 do
    let b = Key.hash (k 0 row) land 15 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - 1000) > 200 then Alcotest.failf "bucket %d skewed: %d" i c)
    buckets

let test_key_hash_nonnegative () =
  for row = 0 to 1000 do
    if Key.hash (k 7 row) < 0 then Alcotest.fail "negative hash"
  done

let test_key_pp () =
  Alcotest.(check string) "to_string" "2:9" (Key.to_string (k 2 9))

(* The record [Key.t] was before it became one packed int, written out:
   the packed key must order, compare, hash and shard exactly as the
   record did, because partition and shard placement (and so every
   recorded schedule) derive from these. *)
module Record_key = struct
  type t = { table : int; row : int }

  let compare a b =
    let c = Int.compare a.table b.table in
    if c <> 0 then c else Int.compare a.row b.row

  let equal a b = a.table = b.table && a.row = b.row

  let hash t =
    let z = Int64.of_int ((t.table * 0x9E3779B1) + t.row) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int z land max_int

  let shard_of ~shards t =
    if shards = 1 then 0
    else begin
      let z = Int64.of_int (hash t) in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 29)) 0xC2B2AE3D27D4EB4FL
      in
      let z = Int64.logxor z (Int64.shift_right_logical z 32) in
      Int64.to_int z land max_int mod shards
    end
end

let key_grid =
  let tables = [ 0; 1; 2; 3; 7; 1000; Key.max_table - 1; Key.max_table ] in
  let rows = [ 0; 1; 2; 17; 99_999; 1_000_003; Key.max_row - 1; Key.max_row ] in
  List.concat_map (fun table -> List.map (fun row -> (table, row)) rows) tables

let test_key_matches_record () =
  let sign c = Int.compare c 0 in
  List.iter
    (fun (ta, ra) ->
      let a = k ta ra and ra' = { Record_key.table = ta; row = ra } in
      let name what = Printf.sprintf "%s %d:%d" what ta ra in
      Alcotest.(check int) (name "table") ta (Key.table a);
      Alcotest.(check int) (name "row") ra (Key.row a);
      Alcotest.(check int) (name "hash") (Record_key.hash ra') (Key.hash a);
      for shards = 1 to 4 do
        Alcotest.(check int)
          (name (Printf.sprintf "shard_of %d" shards))
          (Record_key.shard_of ~shards ra')
          (Key.shard_of ~shards a)
      done;
      List.iter
        (fun (tb, rb) ->
          let b = k tb rb and rb' = { Record_key.table = tb; row = rb } in
          let name what = Printf.sprintf "%s %d:%d vs %d:%d" what ta ra tb rb in
          Alcotest.(check int) (name "compare")
            (sign (Record_key.compare ra' rb'))
            (sign (Key.compare a b));
          Alcotest.(check bool) (name "equal") (Record_key.equal ra' rb')
            (Key.equal a b))
        key_grid)
    key_grid

let test_key_out_of_range () =
  List.iter
    (fun (table, row) ->
      match k table row with
      | _ -> Alcotest.failf "Key.make accepted %d:%d" table row
      | exception Invalid_argument _ -> ())
    [
      (Key.max_table + 1, 0);
      (0, Key.max_row + 1);
      (max_int, 0);
      (0, max_int);
      (Key.max_table + 1, Key.max_row + 1);
    ]

(* --- Value --- *)

let test_value_roundtrip () =
  Alcotest.(check int) "roundtrip" 12345 (Value.to_int (Value.of_int 12345));
  Alcotest.(check int) "zero" 0 (Value.to_int Value.zero);
  Alcotest.(check int) "add" 7 (Value.to_int (Value.add (Value.of_int 10) (-3)));
  Alcotest.(check bool) "equal" true (Value.equal (Value.of_int 5) (Value.of_int 5));
  Alcotest.(check bool) "compare" true (Value.compare (Value.of_int 1) (Value.of_int 2) < 0)

(* --- Txn --- *)

let noop _ = Txn.Commit

let test_txn_sets_sorted_deduped () =
  let t =
    Txn.make ~id:1
      ~read_set:[ k 1 5; k 0 3; k 1 5; k 0 3; k 0 1 ]
      ~write_set:[ k 1 5; k 1 5 ]
      noop
  in
  Alcotest.(check int) "reads deduped" 3 (Array.length t.Txn.read_set);
  Alcotest.(check bool) "reads sorted" true
    (t.Txn.read_set = [| k 0 1; k 0 3; k 1 5 |]);
  Alcotest.(check int) "writes deduped" 1 (Array.length t.Txn.write_set)

let test_txn_membership () =
  let t = Txn.make ~id:0 ~read_set:[ k 0 2; k 0 8 ] ~write_set:[ k 0 8 ] noop in
  Alcotest.(check bool) "reads 2" true (Txn.reads t (k 0 2));
  Alcotest.(check bool) "reads 8" true (Txn.reads t (k 0 8));
  Alcotest.(check bool) "not reads 5" false (Txn.reads t (k 0 5));
  Alcotest.(check bool) "writes 8" true (Txn.writes t (k 0 8));
  Alcotest.(check bool) "not writes 2" false (Txn.writes t (k 0 2))

let test_txn_footprint_union () =
  let t =
    Txn.make ~id:0 ~read_set:[ k 0 1; k 0 3 ] ~write_set:[ k 0 2; k 0 3 ] noop
  in
  Alcotest.(check bool) "union sorted" true
    (Txn.footprint t = [| k 0 1; k 0 2; k 0 3 |])

let test_txn_footprint_disjoint () =
  let t = Txn.make ~id:0 ~read_set:[ k 1 0 ] ~write_set:[ k 0 0 ] noop in
  Alcotest.(check bool) "ordered across tables" true
    (Txn.footprint t = [| k 0 0; k 1 0 |])

let test_txn_empty_sets () =
  let t = Txn.make ~id:0 ~read_set:[] ~write_set:[] noop in
  Alcotest.(check bool) "empty footprint" true (Txn.footprint t = [||]);
  Alcotest.(check bool) "read-only" true (Txn.is_read_only t)

let test_txn_read_only () =
  let ro = Txn.make ~id:0 ~read_set:[ k 0 1 ] ~write_set:[] noop in
  let rw = Txn.make ~id:0 ~read_set:[ k 0 1 ] ~write_set:[ k 0 1 ] noop in
  Alcotest.(check bool) "ro" true (Txn.is_read_only ro);
  Alcotest.(check bool) "rw" false (Txn.is_read_only rw)

(* --- Local_writes --- *)

let test_local_writes_basic () =
  let b = Local_writes.create () in
  Alcotest.(check int) "empty" 0 (Local_writes.size b);
  Local_writes.set b (k 0 1) (Value.of_int 10);
  Alcotest.(check bool) "find" true
    (Local_writes.find b (k 0 1) = Some (Value.of_int 10));
  Alcotest.(check bool) "miss" true (Local_writes.find b (k 0 2) = None)

let test_local_writes_overwrite () =
  let b = Local_writes.create () in
  Local_writes.set b (k 0 1) (Value.of_int 1);
  Local_writes.set b (k 0 1) (Value.of_int 2);
  Alcotest.(check int) "size stays 1" 1 (Local_writes.size b);
  Alcotest.(check bool) "latest value" true
    (Local_writes.find b (k 0 1) = Some (Value.of_int 2))

let test_local_writes_growth () =
  let b = Local_writes.create () in
  for i = 0 to 99 do
    Local_writes.set b (k 0 i) (Value.of_int i)
  done;
  Alcotest.(check int) "size" 100 (Local_writes.size b);
  for i = 0 to 99 do
    if Local_writes.find b (k 0 i) <> Some (Value.of_int i) then
      Alcotest.failf "lost key %d" i
  done

let test_local_writes_clear_reuse () =
  let b = Local_writes.create () in
  Local_writes.set b (k 0 1) Value.zero;
  Local_writes.clear b;
  Alcotest.(check int) "cleared" 0 (Local_writes.size b);
  Alcotest.(check bool) "find misses" true (Local_writes.find b (k 0 1) = None);
  Local_writes.set b (k 0 2) (Value.of_int 5);
  Alcotest.(check bool) "reusable" true
    (Local_writes.find b (k 0 2) = Some (Value.of_int 5))

let test_local_writes_iter_order () =
  let b = Local_writes.create () in
  Local_writes.set b (k 0 3) Value.zero;
  Local_writes.set b (k 0 1) Value.zero;
  Local_writes.set b (k 0 2) Value.zero;
  let order = ref [] in
  Local_writes.iter b (fun key _ -> order := Key.row key :: !order);
  Alcotest.(check (list int)) "insertion order" [ 3; 1; 2 ] (List.rev !order)

(* --- Stats --- *)

let test_stats_throughput () =
  let s = Stats.make ~txns:1000 ~committed:990 ~logic_aborts:10 ~cc_aborts:0 ~elapsed:0.5 () in
  Alcotest.(check (float 0.01)) "throughput" 2000. (Stats.throughput s)

let test_stats_zero_elapsed () =
  let s = Stats.make ~txns:10 ~committed:10 ~logic_aborts:0 ~cc_aborts:0 ~elapsed:0. () in
  Alcotest.(check (float 0.)) "no div by zero" 0. (Stats.throughput s)

let test_stats_abort_rate () =
  let s = Stats.make ~txns:75 ~committed:75 ~logic_aborts:0 ~cc_aborts:25 ~elapsed:1. () in
  Alcotest.(check (float 0.001)) "rate" 0.25 (Stats.abort_rate s);
  let clean = Stats.make ~txns:0 ~committed:0 ~logic_aborts:0 ~cc_aborts:0 ~elapsed:1. () in
  Alcotest.(check (float 0.)) "empty" 0. (Stats.abort_rate clean)

let test_stats_extra () =
  let s =
    Stats.make ~txns:1 ~committed:1 ~logic_aborts:0 ~cc_aborts:0 ~elapsed:1.
      ~extra:[ ("gc", 42.) ] ()
  in
  Alcotest.(check bool) "present" true (Stats.extra s "gc" = Some 42.);
  Alcotest.(check bool) "absent" true (Stats.extra s "nope" = None)

(* [make] normalizes extras so equal runs serialize identically whatever
   order the per-thread counters merged in: sorted by key, duplicate keys
   collapsed to the last occurrence. *)
let test_stats_extra_normalized () =
  let s =
    Stats.make ~txns:1 ~committed:1 ~logic_aborts:0 ~cc_aborts:0 ~elapsed:1.
      ~extra:[ ("b", 1.); ("a", 2.); ("b", 3.) ] ()
  in
  Alcotest.(check bool)
    "sorted, last wins" true
    (s.Stats.extra = [ ("a", 2.); ("b", 3.) ]);
  Alcotest.(check bool) "lookup sees winner" true (Stats.extra s "b" = Some 3.)

let test_stats_latency () =
  let s = Stats.make ~txns:1 ~committed:1 ~logic_aborts:0 ~cc_aborts:0 ~elapsed:1. () in
  Alcotest.(check bool) "default empty" true (s.Stats.latency = []);
  let h = Bohm_util.Histogram.create () in
  Bohm_util.Histogram.add h 7;
  let s =
    Stats.make ~txns:1 ~committed:1 ~logic_aborts:0 ~cc_aborts:0 ~elapsed:1.
      ~latency:[ ("exec", h) ] ()
  in
  (match Stats.latency s "exec" with
  | Some h' ->
      Alcotest.(check int) "histogram kept" 7 (Bohm_util.Histogram.max_value h')
  | None -> Alcotest.fail "exec phase missing");
  Alcotest.(check bool) "absent phase" true (Stats.latency s "gc" = None)

(* --- properties --- *)

let key_gen =
  QCheck.Gen.(map2 (fun t r -> Key.make ~table:t ~row:r) (int_bound 3) (int_bound 50))

let keys_arb = QCheck.make QCheck.Gen.(list_size (int_bound 20) key_gen)

let sorted_unique a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if Key.compare a.(i - 1) a.(i) >= 0 then ok := false
  done;
  !ok

let prop_normalize_sorted_unique =
  QCheck.Test.make ~count:200 ~name:"txn sets sorted and duplicate-free"
    QCheck.(pair keys_arb keys_arb)
    (fun (rs, ws) ->
      let t = Txn.make ~id:0 ~read_set:rs ~write_set:ws noop in
      sorted_unique t.Txn.read_set && sorted_unique t.Txn.write_set)

let prop_footprint_is_union =
  QCheck.Test.make ~count:200 ~name:"footprint equals sorted union"
    QCheck.(pair keys_arb keys_arb)
    (fun (rs, ws) ->
      let t = Txn.make ~id:0 ~read_set:rs ~write_set:ws noop in
      let expected =
        List.sort_uniq Key.compare (rs @ ws) |> Array.of_list
      in
      Txn.footprint t = expected)

let prop_membership_matches_lists =
  QCheck.Test.make ~count:200 ~name:"reads/writes match declared sets"
    QCheck.(pair keys_arb keys_arb)
    (fun (rs, ws) ->
      let t = Txn.make ~id:0 ~read_set:rs ~write_set:ws noop in
      List.for_all (fun key -> Txn.reads t key) rs
      && List.for_all (fun key -> Txn.writes t key) ws)

let prop_local_writes_models_map =
  QCheck.Test.make ~count:200 ~name:"local writes behave like a map"
    QCheck.(list (pair (int_bound 30) small_int))
    (fun ops ->
      let b = Local_writes.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (row, v) ->
          Local_writes.set b (k 0 row) (Value.of_int v);
          Hashtbl.replace model row v)
        ops;
      Hashtbl.fold
        (fun row v acc ->
          acc && Local_writes.find b (k 0 row) = Some (Value.of_int v))
        model true
      && Local_writes.size b = Hashtbl.length model)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "key",
      [
        Alcotest.test_case "accessors" `Quick test_key_accessors;
        Alcotest.test_case "lexicographic order" `Quick test_key_order_lexicographic;
        Alcotest.test_case "equal" `Quick test_key_equal;
        Alcotest.test_case "invalid" `Quick test_key_invalid;
        Alcotest.test_case "hash spreads" `Quick test_key_hash_spreads;
        Alcotest.test_case "hash non-negative" `Quick test_key_hash_nonnegative;
        Alcotest.test_case "pp" `Quick test_key_pp;
        Alcotest.test_case "matches the record key" `Quick test_key_matches_record;
        Alcotest.test_case "out of range" `Quick test_key_out_of_range;
      ] );
    ("value", [ Alcotest.test_case "roundtrip" `Quick test_value_roundtrip ]);
    ( "txn",
      [
        Alcotest.test_case "sets sorted+deduped" `Quick test_txn_sets_sorted_deduped;
        Alcotest.test_case "membership" `Quick test_txn_membership;
        Alcotest.test_case "footprint union" `Quick test_txn_footprint_union;
        Alcotest.test_case "footprint across tables" `Quick test_txn_footprint_disjoint;
        Alcotest.test_case "empty sets" `Quick test_txn_empty_sets;
        Alcotest.test_case "read-only" `Quick test_txn_read_only;
      ]
      @ qcheck
          [
            prop_normalize_sorted_unique;
            prop_footprint_is_union;
            prop_membership_matches_lists;
          ] );
    ( "local-writes",
      [
        Alcotest.test_case "basic" `Quick test_local_writes_basic;
        Alcotest.test_case "overwrite" `Quick test_local_writes_overwrite;
        Alcotest.test_case "growth" `Quick test_local_writes_growth;
        Alcotest.test_case "clear/reuse" `Quick test_local_writes_clear_reuse;
        Alcotest.test_case "iter order" `Quick test_local_writes_iter_order;
      ]
      @ qcheck [ prop_local_writes_models_map ] );
    ( "stats",
      [
        Alcotest.test_case "throughput" `Quick test_stats_throughput;
        Alcotest.test_case "zero elapsed" `Quick test_stats_zero_elapsed;
        Alcotest.test_case "abort rate" `Quick test_stats_abort_rate;
        Alcotest.test_case "extra" `Quick test_stats_extra;
        Alcotest.test_case "extra normalized" `Quick test_stats_extra_normalized;
        Alcotest.test_case "latency" `Quick test_stats_latency;
      ] );
  ]

let () = Alcotest.run "bohm_txn" suite

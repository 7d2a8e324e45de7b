module Key = Bohm_txn.Key

(* Index-probe costs in cycles; slot contents are charged separately by the
   engines through Cell accesses. Misses pay for the chain entries they
   walked before giving up, exactly like hits (the failure path is not
   free in a real hash index). *)
let array_probe_cost = 6
let hash_probe_cost = 24
let chain_step_cost = 10

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  type 'a backend =
    | Array_backend of 'a array
    | Hash_backend of { buckets : (int * 'a) array array; mask : int }

  type 'a t = {
    tables : Table.t array;
    per_table : 'a backend array;
    (* Diagnostic count of charged index probes (hits and misses). An
       [Atomic.t], not a Cell: incrementing it must not perturb the cost
       model, and it stays exact under real parallelism. *)
    probes : int Atomic.t;
  }

  let check_schema tables =
    Array.iteri
      (fun i (tbl : Table.t) ->
        if tbl.Table.tid <> i then
          invalid_arg "Store: tables must be indexed by tid")
      tables

  let create_array ~tables init =
    check_schema tables;
    let per_table =
      Array.map
        (fun (tbl : Table.t) ->
          Array_backend
            (Array.init tbl.Table.rows (fun row ->
                 init (Key.make ~table:tbl.Table.tid ~row))))
        tables
    in
    { tables; per_table; probes = Atomic.make 0 }

  let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

  let create_hash ?(bucket_factor = 1) ~tables init =
    check_schema tables;
    if bucket_factor <= 0 then invalid_arg "Store.create_hash: bucket_factor";
    let per_table =
      Array.map
        (fun (tbl : Table.t) ->
          let rows = tbl.Table.rows in
          let n_buckets = next_pow2 (max 1 (rows / bucket_factor)) 1 in
          let mask = n_buckets - 1 in
          let chains = Array.make n_buckets [] in
          (* Insert in reverse row order so each chain lists rows
             ascending, keeping probes deterministic. *)
          for row = rows - 1 downto 0 do
            let k = Key.make ~table:tbl.Table.tid ~row in
            let b = Key.hash k land mask in
            chains.(b) <- (row, init k) :: chains.(b)
          done;
          Hash_backend { buckets = Array.map Array.of_list chains; mask })
        tables
    in
    { tables; per_table; probes = Atomic.make 0 }

  (* One charged index probe. Callers on a hot path should hold on to the
     returned slot handle instead of probing again: the index is immutable
     after load, so a handle stays valid for the lifetime of the store. *)
  let probe t k =
    let table = Key.table k and row = Key.row k in
    if table >= Array.length t.per_table then None
    else begin
      Atomic.incr t.probes;
      match t.per_table.(table) with
      | Array_backend slots ->
          R.work array_probe_cost;
          if row >= Array.length slots then None else Some slots.(row)
      | Hash_backend { buckets; mask } ->
          let bucket = buckets.(Key.hash k land mask) in
          let n = Array.length bucket in
          let rec walk i =
            if i >= n then begin
              (* Exhausted the chain: the miss walked all [n] entries. *)
              R.work (hash_probe_cost + (n * chain_step_cost));
              None
            end
            else
              let r, slot = bucket.(i) in
              if r = row then begin
                R.work (hash_probe_cost + (i * chain_step_cost));
                Some slot
              end
              else walk (i + 1)
          in
          walk 0
    end

  let get t k = match probe t k with Some slot -> slot | None -> raise Not_found
  let probe_count t = Atomic.get t.probes
  let reset_probe_count t = Atomic.set t.probes 0

  let tables t = t.tables

  let table t tid =
    if tid < 0 || tid >= Array.length t.tables then raise Not_found;
    t.tables.(tid)

  let record_bytes t k = (table t (Key.table k)).Table.record_bytes

  let iter t f =
    Array.iteri
      (fun tid backend ->
        match backend with
        | Array_backend slots ->
            Array.iteri (fun row slot -> f (Key.make ~table:tid ~row) slot) slots
        | Hash_backend { buckets; _ } ->
            (* Collect rows in order for a deterministic traversal. *)
            let tbl = t.tables.(tid) in
            let by_row = Array.make tbl.Table.rows None in
            Array.iter
              (fun bucket ->
                Array.iter (fun (row, slot) -> by_row.(row) <- Some slot) bucket)
              buckets;
            Array.iteri
              (fun row slot ->
                match slot with
                | Some s -> f (Key.make ~table:tid ~row) s
                | None -> ())
              by_row)
      t.per_table
end

module Key = Bohm_txn.Key
module Txn = Bohm_txn.Txn
module KS = Set.Make (Key)

type kind = [ `Ww | `Wr | `Rw ]

type footprint = { id : int; reads : Key.t array; writes : Key.t array }

type t = {
  ids : int array;  (** Position -> transaction id. *)
  (* Edges over positions, deduplicated, each an earlier -> later pair by
     construction. *)
  pos_edges : (int * int * kind) list;
  read_keys : Key.t array array;  (** Position -> read set. *)
  write_keys : Key.t array array;  (** Position -> write set. *)
}

let kind_rank = function `Ww -> 0 | `Wr -> 1 | `Rw -> 2

let compare_edge (a, b, k) (a', b', k') =
  match compare a a' with
  | 0 -> ( match compare b b' with 0 -> compare (kind_rank k) (kind_rank k') | c -> c)
  | c -> c

let sort_dedup edges =
  let sorted = List.sort compare_edge edges in
  let rec uniq = function
    | a :: (b :: _ as tl) when compare_edge a b = 0 -> uniq tl
    | a :: tl -> a :: uniq tl
    | [] -> []
  in
  uniq sorted

let of_footprints fps =
  let ids = Array.map (fun f -> f.id) fps in
  (* Per key, a chronological access list built in one pass over the
     batch. *)
  let per_key : (Key.t, (int * [ `R | `W ]) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  let touch key ev =
    match Hashtbl.find_opt per_key key with
    | Some l -> l := ev :: !l
    | None -> Hashtbl.add per_key key (ref [ ev ])
  in
  Array.iteri
    (fun pos f ->
      (* A transaction with the key in both sets is a writer; its read is
         the ww edge to its predecessor. Dedup within the transaction. *)
      let w = KS.of_list (Array.to_list f.writes) in
      let r = KS.of_list (Array.to_list f.reads) in
      KS.iter (fun k -> touch k (pos, `W)) w;
      KS.iter (fun k -> if not (KS.mem k w) then touch k (pos, `R)) r)
    fps;
  let edges = ref [] in
  let add a b k = if a <> b then edges := (a, b, k) :: !edges in
  Hashtbl.iter
    (fun _key accesses ->
      (* Chronological order; [last_writer = -1] is the initial version
         (no edges from it, as in the observed graph). *)
      let accesses = List.rev !accesses in
      let last_writer = ref (-1) in
      let pending_readers = ref [] in
      List.iter
        (fun (pos, what) ->
          match what with
          | `W ->
              if !last_writer >= 0 then add !last_writer pos `Ww;
              List.iter (fun r -> add r pos `Rw) !pending_readers;
              pending_readers := [];
              last_writer := pos
          | `R ->
              if !last_writer >= 0 then add !last_writer pos `Wr;
              pending_readers := pos :: !pending_readers)
        accesses)
    per_key;
  {
    ids;
    pos_edges = sort_dedup !edges;
    read_keys = Array.map (fun f -> f.reads) fps;
    write_keys = Array.map (fun f -> f.writes) fps;
  }

let of_txns txns =
  of_footprints
    (Array.map
       (fun t -> { id = t.Txn.id; reads = t.Txn.read_set; writes = t.Txn.write_set })
       txns)

let of_instances insts =
  of_footprints
    (Array.map
       (fun inst ->
         let fp = Absint.infer inst in
         { id = inst.Tir.id; reads = fp.Absint.may_reads; writes = fp.Absint.may_writes })
       insts)

let edges t =
  sort_dedup
    (List.map (fun (a, b, k) -> (t.ids.(a), t.ids.(b), k)) t.pos_edges)

let edge_counts t =
  List.fold_left
    (fun (ww, wr, rw) (_, _, k) ->
      match k with
      | `Ww -> (ww + 1, wr, rw)
      | `Wr -> (ww, wr + 1, rw)
      | `Rw -> (ww, wr, rw + 1))
    (0, 0, 0) t.pos_edges

let txns t = Array.length t.ids

(* Mean conflict degree: each edge touches two transactions. *)
let degree_mean t =
  let n = txns t in
  if n = 0 then 0.
  else 2. *. float_of_int (List.length t.pos_edges) /. float_of_int n

let degree_max t =
  let n = txns t in
  let deg = Array.make (max 1 n) 0 in
  List.iter
    (fun (a, b, _) ->
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1)
    t.pos_edges;
  Array.fold_left max 0 deg

let critical_path t =
  let n = txns t in
  if n = 0 then 0
  else begin
    (* Edges go earlier -> later position, so one in-order DP pass. *)
    let depth = Array.make n 1 in
    List.iter
      (fun (a, b, _) -> if depth.(a) + 1 > depth.(b) then depth.(b) <- depth.(a) + 1)
      (List.sort compare_edge t.pos_edges);
    Array.fold_left max 1 depth
  end

let partition_load t ~partitions =
  if partitions <= 0 then invalid_arg "Conflict_graph.partition_load";
  let load = Array.make partitions 0 in
  Array.iter
    (Array.iter (fun k ->
         let p = Key.hash k mod partitions in
         load.(p) <- load.(p) + 1))
    t.write_keys;
  load

(* Max/mean ratio of a load vector: the skew number the CC batch barrier
   turns into idle time. *)
let load_imbalance load =
  let total = Array.fold_left ( + ) 0 load in
  if total = 0 || Array.length load = 0 then 1.0
  else
    float_of_int (Array.fold_left max 0 load)
    /. (float_of_int total /. float_of_int (Array.length load))

type shard_stats = {
  shard_load : int array;
  cross_txns : int;
  cross_edges : int;
  vote_fanout : float;
}

(* Mirrors the engine's homing rule: the shard of the first read-set key,
   else the first write-set key, else shard 0. *)
let home_shard t ~shards pos =
  let r = t.read_keys.(pos) and w = t.write_keys.(pos) in
  if Array.length r > 0 then Key.shard_of ~shards r.(0)
  else if Array.length w > 0 then Key.shard_of ~shards w.(0)
  else 0

let shard_stats t ~shards =
  if shards <= 0 then invalid_arg "Conflict_graph.shard_stats";
  let n = txns t in
  let shard_load = Array.make shards 0 in
  Array.iter
    (Array.iter (fun k ->
         let s = Key.shard_of ~shards k in
         shard_load.(s) <- shard_load.(s) + 1))
    t.write_keys;
  let owners pos =
    let m = ref 0 in
    let touch k = m := !m lor (1 lsl Key.shard_of ~shards k) in
    Array.iter touch t.read_keys.(pos);
    Array.iter touch t.write_keys.(pos);
    !m
  in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  let cross_txns = ref 0 and fanout_sum = ref 0 in
  for pos = 0 to n - 1 do
    let c = popcount (owners pos) in
    if c > 1 then begin
      incr cross_txns;
      fanout_sum := !fanout_sum + c
    end
  done;
  let cross_edges =
    List.fold_left
      (fun acc (a, b, _) ->
        if home_shard t ~shards a <> home_shard t ~shards b then acc + 1
        else acc)
      0 t.pos_edges
  in
  {
    shard_load;
    cross_txns = !cross_txns;
    cross_edges;
    vote_fanout =
      (if !cross_txns = 0 then 0.
       else float_of_int !fanout_sum /. float_of_int !cross_txns);
  }

let shard_summary t ~shards =
  let s = shard_stats t ~shards in
  let n = txns t in
  Printf.sprintf
    "shard load (%d): [%s]\n\
     cross-shard txns: %d of %d (%.1f%%)\n\
     cross-shard edges: %d of %d\n\
     expected vote fan-out: %.2f owning shards per cross-shard txn"
    shards
    (String.concat "; " (Array.to_list (Array.map string_of_int s.shard_load)))
    s.cross_txns n
    (if n = 0 then 0. else 100. *. float_of_int s.cross_txns /. float_of_int n)
    s.cross_edges
    (List.length t.pos_edges)
    s.vote_fanout

let diff t ~observed =
  let s = edges t in
  let o = sort_dedup observed in
  let rec go s o static_only observed_only =
    match (s, o) with
    | [], [] -> (List.rev static_only, List.rev observed_only)
    | s1 :: s', [] -> go s' [] (s1 :: static_only) observed_only
    | [], o1 :: o' -> go [] o' static_only (o1 :: observed_only)
    | s1 :: s', o1 :: o' ->
        let c = compare_edge s1 o1 in
        if c = 0 then go s' o' static_only observed_only
        else if c < 0 then go s' o (s1 :: static_only) observed_only
        else go s o' static_only (o1 :: observed_only)
  in
  go s o [] []

let summary t ~partitions =
  let ww, wr, rw = edge_counts t in
  let load = partition_load t ~partitions in
  Printf.sprintf
    "conflict graph: %d txns, %d edges (ww=%d wr=%d rw=%d)\n\
     conflict degree: mean %.2f, max %d\n\
     critical path: %d of %d txns\n\
     partition load (%d): [%s]\n\
     partition imbalance (max/mean): %.2f"
    (txns t)
    (ww + wr + rw) ww wr rw (degree_mean t) (degree_max t) (critical_path t)
    (txns t) partitions
    (String.concat "; " (Array.to_list (Array.map string_of_int load)))
    (load_imbalance load)

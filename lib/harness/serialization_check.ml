module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Rng = Bohm_util.Rng

(* Observations are filled by whichever thread finally executes the
   transaction's logic; engines run logic attempts one at a time per
   transaction, and the run's join provides the ordering for our read. *)
type obs = {
  mutable rmw_preds : (int * int) list; (* row, observed writer id *)
  mutable pure_reads : (int * int) list;
}

type workload = {
  rows : int;
  txn_array : Txn.t array;
  observations : obs array;
}

let initial_value _ = Value.zero

let make_workload_gen ?flash ~rows ~txns ~rmws_per_txn ~reads_per_txn ~seed () =
  if rows < rmws_per_txn + reads_per_txn then
    invalid_arg "Serialization_check.make_workload: footprint exceeds rows";
  (match flash with
  | Some (phases, hot_keys, hot_frac) ->
      if phases <= 0 || hot_keys <= 0 || hot_keys >= rows then
        invalid_arg "Serialization_check.make_workload: bad flash window";
      if hot_frac < 0. || hot_frac > 1. then
        invalid_arg "Serialization_check.make_workload: hot_frac out of range";
      if hot_frac = 1. && hot_keys < rmws_per_txn + reads_per_txn then
        invalid_arg
          "Serialization_check.make_workload: hot set smaller than footprint"
  | None -> ());
  let rng = Rng.create ~seed in
  let observations =
    Array.init txns (fun _ -> { rmw_preds = []; pure_reads = [] })
  in
  let txn_array =
    Array.init txns (fun i ->
        let id = i + 1 (* 0 is the initial-version writer *) in
        let n = rmws_per_txn + reads_per_txn in
        let all =
          match flash with
          | None -> Rng.distinct n (fun _ -> Some (Rng.int rng rows))
          | Some (phases, hot_keys, hot_frac) ->
              let stride = max 1 (rows / phases) in
              let phase_len = max 1 ((txns + phases - 1) / phases) in
              let base = min (phases - 1) (i / phase_len) * stride mod rows in
              (* Each candidate comes from the [hot_keys]-wide window at
                 [base] with probability [hot_frac], else uniform; the
                 coin is re-flipped on every rejection, so the sampler
                 terminates whenever [hot_frac < 1] even with a window
                 smaller than the footprint. *)
              Rng.distinct n (fun _ ->
                  Some
                    (if Rng.float rng 1.0 < hot_frac then
                       (base + Rng.int rng hot_keys) mod rows
                     else Rng.int rng rows))
        in
        let rmw_rows = Array.sub all 0 rmws_per_txn in
        let read_rows = Array.sub all rmws_per_txn reads_per_txn in
        let keys rows_arr =
          Array.to_list (Array.map (fun row -> Key.make ~table:0 ~row) rows_arr)
        in
        let o = observations.(i) in
        Txn.make ~id
          ~read_set:(keys rmw_rows @ keys read_rows)
          ~write_set:(keys rmw_rows)
          (fun ctx ->
            o.rmw_preds <- [];
            o.pure_reads <- [];
            Array.iter
              (fun row ->
                let k = Key.make ~table:0 ~row in
                let seen = Value.to_int (ctx.Txn.read k) in
                o.rmw_preds <- (row, seen) :: o.rmw_preds;
                ctx.Txn.write k (Value.of_int id))
              rmw_rows;
            Array.iter
              (fun row ->
                let k = Key.make ~table:0 ~row in
                o.pure_reads <- (row, Value.to_int (ctx.Txn.read k)) :: o.pure_reads)
              read_rows;
            Txn.Commit))
  in
  { rows; txn_array; observations }

let make_workload ~rows ~txns ~rmws_per_txn ~reads_per_txn ~seed =
  make_workload_gen ~rows ~txns ~rmws_per_txn ~reads_per_txn ~seed ()

let make_flash_workload ~phases ~hot_keys ~hot_frac ~rows ~txns ~rmws_per_txn
    ~reads_per_txn ~seed =
  make_workload_gen
    ~flash:(phases, hot_keys, hot_frac)
    ~rows ~txns ~rmws_per_txn ~reads_per_txn ~seed ()

let txns w = w.txn_array

type verdict = Serializable | Cycle of int list | Corrupt of string

let verdict_to_string = function
  | Serializable -> "serializable"
  | Cycle ids ->
      "cycle: " ^ String.concat " -> " (List.map string_of_int ids)
  | Corrupt msg -> "corrupt execution: " ^ msg

exception Corrupt_exn of string

(* Recover each key's version order from RMW observations: every writer
   names its predecessor, so per key the successor map must be a simple
   path 0 -> w1 -> ... -> final writer. *)
let recover_chains w ~final_read =
  let per_key_succ = Hashtbl.create 64 in
  let is_writer = Hashtbl.create 64 in
  (* (row, pred) -> writer *)
  Array.iteri
    (fun i o ->
      let id = i + 1 in
      List.iter
        (fun (row, pred) ->
          if Hashtbl.mem per_key_succ (row, pred) then
            raise
              (Corrupt_exn
                 (Printf.sprintf
                    "lost update on row %d: two writers observed writer %d" row
                    pred));
          Hashtbl.replace per_key_succ (row, pred) id;
          Hashtbl.replace is_writer (row, id) ())
        o.rmw_preds)
    w.observations;
  (* Validate: following successors from the initial version visits every
     writer of the row exactly once and ends at the engine's final
     value. *)
  let writers_per_row = Hashtbl.create 64 in
  Array.iteri
    (fun i o ->
      List.iter
        (fun (row, _) ->
          Hashtbl.replace writers_per_row row
            (1 + Option.value ~default:0 (Hashtbl.find_opt writers_per_row row));
          ignore i)
        o.rmw_preds)
    w.observations;
  Hashtbl.iter
    (fun row count ->
      let final = Value.to_int (final_read (Key.make ~table:0 ~row)) in
      let rec walk at steps =
        match Hashtbl.find_opt per_key_succ (row, at) with
        | Some next -> walk next (steps + 1)
        | None ->
            if steps <> count then
              raise
                (Corrupt_exn
                   (Printf.sprintf "row %d: chain covers %d of %d writers" row
                      steps count));
            if at <> final then
              raise
                (Corrupt_exn
                   (Printf.sprintf
                      "row %d: chain ends at writer %d but final value is %d"
                      row at final))
      in
      walk 0 0)
    writers_per_row;
  (per_key_succ, is_writer)

(* Every DSG edge, labeled with its kind, in reverse order of discovery.
   Raises [Corrupt_exn]. *)
let labeled_edges w ~final_read =
  let succ, is_writer = recover_chains w ~final_read in
  let edges = ref [] in
  let add a b kind = if a <> b && a <> 0 then edges := (a, b, kind) :: !edges in
  Array.iteri
    (fun i o ->
      let id = i + 1 in
      let reads_edges kind (row, seen) =
        if seen <> 0 && not (Hashtbl.mem is_writer (row, seen)) then
          raise
            (Corrupt_exn
               (Printf.sprintf "row %d: txn %d read phantom value %d" row id
                  seen));
        (* wr (ww for an RMW's read of its predecessor): the observed
           writer precedes us. *)
        add seen id kind;
        (* rw anti-dependency: we precede whoever overwrote what we
           read. *)
        match Hashtbl.find_opt succ (row, seen) with
        | Some overwriter when overwriter <> id -> add id overwriter `Rw
        | _ -> ()
      in
      List.iter (reads_edges `Ww) o.rmw_preds;
      List.iter (reads_edges `Wr) o.pure_reads)
    w.observations;
  !edges

let kind_rank = function `Ww -> 0 | `Wr -> 1 | `Rw -> 2

let sort_edges edges =
  let cmp (a, b, k) (a', b', k') =
    match compare a a' with
    | 0 -> (
        match compare b b' with
        | 0 -> compare (kind_rank k) (kind_rank k')
        | c -> c)
    | c -> c
  in
  List.sort_uniq cmp edges

let observed_graph w ~final_read =
  match sort_edges (labeled_edges w ~final_read) with
  | edges -> Ok edges
  | exception Corrupt_exn msg -> Error msg

(* DFS cycle detection with path recovery over adjacency lists indexed
   1..n (0 is the initial-version writer and never appears). *)
let find_cycle n edges =
  let color = Array.make (n + 1) 0 in
  let parent = Array.make (n + 1) 0 in
  let cycle = ref None in
  let rec dfs v =
    if !cycle = None then begin
      color.(v) <- 1;
      List.iter
        (fun u ->
          if !cycle = None then
            if color.(u) = 0 then begin
              parent.(u) <- v;
              dfs u
            end
            else if color.(u) = 1 then begin
              (* Found a back edge v -> u: recover the path u ... v. *)
              let rec collect at acc =
                if at = u then u :: acc else collect parent.(at) (at :: acc)
              in
              cycle := Some (collect v [ u ])
            end)
        edges.(v);
      color.(v) <- 2
    end
  in
  for v = 1 to n do
    if color.(v) = 0 then dfs v
  done;
  !cycle

(* Adjacency lists are built in discovery order, so the DFS, and with it
   the reported cycle, follows the edges in a fixed order. *)
let cycle_of w ~final_read =
  let n = Array.length w.txn_array in
  let adj = Array.make (n + 1) [] in
  List.iter
    (fun (a, b, _) -> adj.(a) <- b :: adj.(a))
    (List.rev (labeled_edges w ~final_read));
  match find_cycle n adj with None -> Serializable | Some ids -> Cycle ids

let check w ~final_read =
  try cycle_of w ~final_read with Corrupt_exn msg -> Corrupt msg

(* Vote-round consistency: BOHM's vote round has no abort outcome (no
   shard can refuse a batch whose write sets were declared up front), so
   every batch commits, and a shard that voted to abort one is exactly
   the lost-vote failure. *)
let audit_votes vote_log =
  List.iter
    (fun (s, b, local) ->
      if not local then
        raise
          (Corrupt_exn
             (Printf.sprintf
                "shard %d committed batch %d it voted to abort (vote lost \
                 in transit)"
                s b)))
    vote_log

(* The whole-system DSG is the flat graph: final-value agreement per key —
   the last writer in the recovered chain matching the engine's committed
   state, whichever shard's store holds it — is enforced inside the chain
   recovery. *)
let check_sharded w ~final_read ~vote_log =
  try
    audit_votes vote_log;
    cycle_of w ~final_read
  with Corrupt_exn msg -> Corrupt msg

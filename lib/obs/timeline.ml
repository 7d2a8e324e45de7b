(* Per-batch telemetry derived by replaying a recorded run's spans and
   instants. Nothing here runs inside the engines: the recorder's buffers
   already carry a batch id on every span and instant, so the timeline is
   a pure post-run fold — obs off costs nothing, obs on charges nothing.

   A record's stage durations are wall windows (max end − min begin over
   the stage's spans in the batch, across tracks). Within one pipeline the
   watermark handshakes order the stages — preprocess(b) < rebalance(b) <
   cc(b) < exec(b) < shard_vote(b) — so the non-nested windows are
   disjoint and their sum is bounded by the batch makespan ([gc] is nested
   inside [cc] and excluded from that invariant; test_obs checks it on an
   unsharded run). A sharded run merges each window across its shards'
   pipelines, and the vote wait of the shard that finishes first overlaps
   its peer's exec, so there the sum can exceed the makespan. *)

type record = {
  tl_batch : int;
  tl_start : int; (* min event ts attributed to the batch *)
  tl_finish : int; (* max event ts *)
  tl_stages : (string * int) list; (* stage -> wall window, pipeline order *)
  tl_committed : int; (* batch_commit instant values *)
  tl_steals : int;
  tl_wakeups : int;
  tl_retry_scans : int;
  tl_recycled : int;
  tl_dep_stall : int; (* blamed stall cycles (dep_stall:* instants) *)
  tl_slab_occ : int; (* max open-slab count sampled at cc span ends *)
  tl_cc_imbalance : float; (* max measured partition imbalance *)
  tl_votes : (string * int) list; (* voter track -> vote-round duration *)
}

(* Quantum used by the single-layer baselines to attribute their per-txn
   spans to a nominal batch (transaction index / quantum), mirroring
   BOHM's default batch size so per-batch curves are comparable. *)
let baseline_quantum = 1000

let makespan r = r.tl_finish - r.tl_start

let stage r name =
  match List.assoc_opt name r.tl_stages with Some d -> d | None -> 0

(* Canonical stage order for reports; unknown stages sort by name after
   these. *)
let stage_rank = function
  | "sequence" -> 0
  | "preprocess" -> 1
  | "rebalance" -> 2
  | "cc" -> 3
  | "gc" -> 4
  | "lock" -> 5
  | "exec" -> 6
  | "commit" -> 7
  | "shard_vote" -> 8
  | _ -> 9

let compare_stage x y =
  let c = compare (stage_rank x) (stage_rank y) in
  if c <> 0 then c else String.compare x y

let blame_prefix = "dep_stall:"

let parse_blame name =
  let plen = String.length blame_prefix in
  if String.length name <= plen || String.sub name 0 plen <> blame_prefix then
    None
  else
    let rest = String.sub name plen (String.length name - plen) in
    match String.index_opt rest ':' with
    | None -> None
    | Some i -> (
        match int_of_string_opt (String.sub rest 0 i) with
        | None -> None
        | Some writer ->
            Some (writer, String.sub rest (i + 1) (String.length rest - i - 1)))

type window = { w_start : int; w_finish : int; w_track : string }

let replay recorder ~on_span ~on_instant =
  let windows = Hashtbl.create 64 in
  List.iter
    (fun buf ->
      let track = Buf.name buf in
      (* Replay this track's strictly nested spans; [End] events carry no
         batch, so the stack restores the attribution. *)
      let stack = ref [] in
      List.iter
        (fun (ev : Buf.event) ->
          match ev with
          | Buf.Begin { name; batch; ts } -> stack := (name, batch, ts) :: !stack
          | Buf.End { ts; _ } -> (
              match !stack with
              | [] -> () (* unbalanced: ignore, Chrome.of_string rejects it *)
              | (stage, batch, ts0) :: rest ->
                  stack := rest;
                  if batch >= 0 then begin
                    let w =
                      match Hashtbl.find_opt windows (batch, stage) with
                      | None -> { w_start = ts0; w_finish = ts; w_track = track }
                      | Some w ->
                          let w = { w with w_start = min w.w_start ts0 } in
                          if ts >= w.w_finish then
                            { w with w_finish = ts; w_track = track }
                          else w
                    in
                    Hashtbl.replace windows (batch, stage) w;
                    on_span ~track ~stage ~batch ts0 ts
                  end)
          | Buf.Instant { name; batch; value; ts } ->
              on_instant ~name ~batch ~value ~ts)
        (Buf.events buf))
    (Recorder.tracks recorder);
  windows

(* A batch's record while the replay folds into it: [tl_start]/[tl_finish]
   start at max_int/min_int, and the stage and vote lists are unsorted. *)
let empty batch =
  {
    tl_batch = batch;
    tl_start = max_int;
    tl_finish = min_int;
    tl_stages = [];
    tl_committed = 0;
    tl_steals = 0;
    tl_wakeups = 0;
    tl_retry_scans = 0;
    tl_recycled = 0;
    tl_dep_stall = 0;
    tl_slab_occ = 0;
    tl_cc_imbalance = 0.;
    tl_votes = [];
  }

let touch ts r =
  { r with tl_start = Int.min r.tl_start ts; tl_finish = Int.max r.tl_finish ts }

let of_recorder recorder =
  let batches : (int, record) Hashtbl.t = Hashtbl.create 64 in
  let update b f =
    let r =
      match Hashtbl.find_opt batches b with Some r -> r | None -> empty b
    in
    Hashtbl.replace batches b (f r)
  in
  let on_span ~track ~stage ~batch ts0 ts =
    if stage = "shard_vote" then
      update batch (fun r ->
          let d = Option.value ~default:0 (List.assoc_opt track r.tl_votes) in
          {
            r with
            tl_votes =
              (track, d + (ts - ts0)) :: List.remove_assoc track r.tl_votes;
          })
  in
  let on_instant ~name ~batch ~value ~ts =
    if batch >= 0 then
      update batch (fun r ->
          let r = touch ts r in
          if parse_blame name <> None then
            { r with tl_dep_stall = r.tl_dep_stall + value }
          else
            match name with
            | "steal" -> { r with tl_steals = r.tl_steals + 1 }
            | "wakeup" -> { r with tl_wakeups = r.tl_wakeups + 1 }
            | "retry_scan" -> { r with tl_retry_scans = r.tl_retry_scans + 1 }
            | "recycle" -> { r with tl_recycled = r.tl_recycled + 1 }
            | "batch_commit" -> { r with tl_committed = r.tl_committed + value }
            | "slab_occ" -> { r with tl_slab_occ = Int.max r.tl_slab_occ value }
            | "cc_imbalance" ->
                let imb = float_of_int value /. 1000. in
                if imb > r.tl_cc_imbalance then { r with tl_cc_imbalance = imb }
                else r
            | _ -> r)
  in
  let windows = replay recorder ~on_span ~on_instant in
  Hashtbl.iter
    (fun (batch, stage) w ->
      update batch (fun r ->
          let r = touch w.w_finish (touch w.w_start r) in
          { r with tl_stages = (stage, w.w_finish - w.w_start) :: r.tl_stages }))
    windows;
  Hashtbl.fold (fun _ r acc -> r :: acc) batches []
  |> List.sort (fun a b -> compare a.tl_batch b.tl_batch)
  |> List.map (fun r ->
         {
           r with
           tl_start = (if r.tl_start = max_int then 0 else r.tl_start);
           tl_finish = (if r.tl_finish = min_int then 0 else r.tl_finish);
           tl_stages =
             List.sort (fun (x, _) (y, _) -> compare_stage x y) r.tl_stages;
           tl_votes =
             List.sort (fun (x, _) (y, _) -> String.compare x y) r.tl_votes;
         })

(* --- JSONL export ------------------------------------------------- *)

(* One object per line; the [d_<stage>] duration keys are always present
   (0 when the stage did not run). test_obs's "schema of a BOHM run"
   checks every key on an unsharded run's records. *)
let fixed_stages =
  [
    ("d_sequence", "sequence");
    ("d_preprocess", "preprocess");
    ("d_rebalance", "rebalance");
    ("d_cc", "cc");
    ("d_gc", "gc");
    ("d_exec", "exec");
    ("d_vote", "shard_vote");
  ]

let jsonl_line r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"batch\": %d, \"start\": %d, \"finish\": %d, \"makespan\": %d"
       r.tl_batch r.tl_start r.tl_finish (makespan r));
  List.iter
    (fun (key, st) -> Buffer.add_string b (Printf.sprintf ", \"%s\": %d" key (stage r st)))
    fixed_stages;
  (* Stages outside the fixed pipeline vocabulary (baseline engines:
     lock, commit, …) keep their own keys. *)
  List.iter
    (fun (st, d) ->
      if not (List.exists (fun (_, s) -> s = st) fixed_stages) then
        Buffer.add_string b (Printf.sprintf ", \"d_%s\": %d" st d))
    r.tl_stages;
  Buffer.add_string b
    (Printf.sprintf
       ", \"committed\": %d, \"steals\": %d, \"wakeups\": %d, \
        \"retry_scans\": %d, \"recycled\": %d, \"dep_stall\": %d, \
        \"slab_occ\": %d, \"cc_imbalance\": %.3f, \"votes\": {"
       r.tl_committed r.tl_steals r.tl_wakeups r.tl_retry_scans r.tl_recycled
       r.tl_dep_stall r.tl_slab_occ r.tl_cc_imbalance);
  List.iteri
    (fun i (track, d) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" track d))
    r.tl_votes;
  Buffer.add_string b "}}";
  Buffer.contents b

let write_jsonl ~path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (jsonl_line r);
          output_char oc '\n')
        records)

(* --- Chrome counter tracks ----------------------------------------- *)

(* One sample per batch at the batch's finish instant; rendered by
   {!Chrome} as "C" (counter) events so Perfetto draws throughput and
   stall curves above the span tracks. *)
let counters records =
  List.concat_map
    (fun r ->
      let ts = r.tl_finish in
      [
        (ts, "committed", float_of_int r.tl_committed);
        (ts, "stalls", float_of_int (r.tl_steals + r.tl_wakeups + r.tl_retry_scans));
        (ts, "slab_occ", float_of_int r.tl_slab_occ);
        (ts, "cc_imbalance", r.tl_cc_imbalance);
      ])
    records

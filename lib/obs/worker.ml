module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  type phase = Lock | Exec | Commit

  let phase_name = function Lock -> "lock" | Exec -> "exec" | Commit -> "commit"

  let latency_phase = function
    | Lock | Commit -> Latency.Cc_wait
    | Exec -> Latency.Exec

  (* The observed half of a worker. [segs] holds the open attempt's
     phases with their start times, newest first; [] between attempts.
     The attempt has exactly one span open, its newest phase's. *)
  type obs = {
    buf : Buf.t;
    lat : Latency.t;
    start_ns : int;  (* run start, anchors queue-wait *)
    mutable first : int option;  (* first dispatch, under [retry] only *)
    mutable segs : (phase * int) list;
  }

  type t = {
    me : int;
    ms : Metrics.shard;
    mutable committed : int;
    mutable logic_aborts : int;
    mutable batch : int;  (* nominal batch of the current transaction *)
    ob : obs option;
  }

  let me w = w.me
  let metrics w = w.ms

  let enter w phase =
    match w.ob with
    | None -> ()
    | Some o ->
        let ts = R.now_ns () in
        if o.segs <> [] then Buf.end_span o.buf ~ts;
        Buf.begin_span o.buf ~phase:(phase_name phase) ~batch:w.batch ~ts;
        o.segs <- (phase, ts) :: o.segs

  let finish w (outcome : Txn.outcome) =
    (match outcome with
    | Txn.Commit -> w.committed <- w.committed + 1
    | Txn.Abort -> w.logic_aborts <- w.logic_aborts + 1);
    match w.ob with
    | None -> ()
    | Some o ->
        let tend = R.now_ns () in
        Buf.end_span o.buf ~ts:tend;
        (* Each phase lasts until the next one starts; the fold ends at
           the attempt's start. *)
        let att_ts =
          List.fold_left
            (fun until (p, t0) ->
              Latency.add o.lat (latency_phase p) (until - t0);
              t0)
            tend o.segs
        in
        (match o.first with
        | Some first ->
            Latency.add o.lat Latency.Dep_stall (att_ts - first);
            Latency.add o.lat Latency.Queue_wait (first - o.start_ns)
        | None -> Latency.add o.lat Latency.Queue_wait (att_ts - o.start_ns));
        o.segs <- []

  let conflict w ~name =
    match w.ob with
    | None -> ()
    | Some o ->
        let ts = R.now_ns () in
        Buf.end_span o.buf ~ts;
        Buf.instant o.buf ~name ~batch:w.batch ~ts;
        o.segs <- []

  let retry w ~backoff ~max_backoff attempt =
    (match w.ob with None -> () | Some o -> o.first <- Some (R.now_ns ()));
    while not (attempt ()) do
      for _ = 1 to !backoff do
        R.relax ()
      done;
      if !backoff < max_backoff then backoff := !backoff * 2
    done

  let run ~workers ~track ~select ~cc_aborts body txns =
    (* Tracks are created on the driver thread before the spawns. *)
    let recorder = Recorder.current () in
    let start_ns = match recorder with None -> 0 | Some _ -> R.now_ns () in
    let ws =
      Array.init workers (fun me ->
          {
            me;
            ms = Metrics.shard ();
            committed = 0;
            logic_aborts = 0;
            batch = 0;
            ob =
              Option.map
                (fun r ->
                  {
                    buf = Recorder.track r ~name:(Printf.sprintf "%s-%d" track me);
                    lat = Latency.create ();
                    start_ns;
                    first = None;
                    segs = [];
                  })
                recorder;
          })
    in
    let n = Array.length txns in
    let loop w =
      let idx = ref w.me in
      while !idx < n do
        w.batch <- !idx / Timeline.baseline_quantum;
        (match w.ob with None -> () | Some o -> o.first <- None);
        body w txns.(!idx);
        idx := !idx + workers
      done
    in
    let start = R.now () in
    let threads = List.init workers (fun me -> R.spawn (fun () -> loop ws.(me))) in
    List.iter R.join threads;
    let elapsed = R.now () -. start in
    let latency =
      Latency.merge_all
        (Array.to_list ws |> List.filter_map (fun w -> Option.map (fun o -> o.lat) w.ob))
    in
    let sum f = Array.fold_left (fun acc w -> acc + f w) 0 ws in
    let shards = Array.to_list (Array.map (fun w -> w.ms) ws) in
    Stats.make ~txns:n
      ~committed:(sum (fun w -> w.committed))
      ~logic_aborts:(sum (fun w -> w.logic_aborts))
      ~cc_aborts:
        (List.fold_left (fun acc c -> acc + Metrics.total c shards) 0 cc_aborts)
      ~elapsed ~latency
      ~extra:(Metrics.to_extra (Metrics.collect ~select shards))
      ()
end

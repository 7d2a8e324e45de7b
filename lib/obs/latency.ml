module Histogram = Bohm_util.Histogram

type phase = Queue_wait | Cc_wait | Dep_stall | Exec | Shard_vote | Rebalance

let phase_name = function
  | Queue_wait -> "queue_wait"
  | Cc_wait -> "cc_wait"
  | Dep_stall -> "dep_stall"
  | Exec -> "exec"
  | Shard_vote -> "shard_vote"
  | Rebalance -> "rebalance"

let phases = [ Queue_wait; Cc_wait; Dep_stall; Exec; Shard_vote; Rebalance ]
let phase_names = List.map phase_name phases

type t = (phase * Histogram.t) list

let create () = List.map (fun phase -> (phase, Histogram.create ())) phases
let histogram t phase = List.assq phase t
let add t phase v = Histogram.add (histogram t phase) v

let merge_all ts =
  match ts with
  | [] -> []
  | _ ->
      List.map
        (fun phase ->
          let merged = Histogram.create () in
          List.iter
            (fun t -> Histogram.merge ~into:merged (histogram t phase))
            ts;
          (phase_name phase, merged))
        phases

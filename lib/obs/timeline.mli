(** Per-batch telemetry replayed from a recorded run.

    [of_recorder] folds every track's spans and instants into one record
    per batch id: barrier-to-barrier makespan, per-stage wall durations
    (sequence / preprocess / rebalance / cc / gc / exec / shard_vote for
    BOHM; lock / exec / commit for the single-layer baselines, which
    attribute their per-txn spans to nominal batches of
    {!baseline_quantum} transactions), committed transactions, steal /
    wakeup / retry-scan / recycle counts, blamed dependency-stall cycles,
    peak open-slab occupancy, measured CC imbalance, and the per-voter
    vote-round durations.

    Everything is a pure post-run fold over the recorder — the engines
    pay nothing beyond the PR5 span instrumentation. Timestamps are in
    the runtime's [now_ns] unit (cycles under Sim, wall ns under Real). *)

type record = {
  tl_batch : int;
  tl_start : int;
  tl_finish : int;
  tl_stages : (string * int) list;
      (** Stage -> wall window (max end − min begin across tracks), in
          pipeline order. Within one pipeline the non-nested windows
          of a batch are disjoint, so their sum is bounded by the
          makespan; a sharded run merges the windows across shards,
          where they may overlap. *)
  tl_committed : int;
  tl_steals : int;
  tl_wakeups : int;
  tl_retry_scans : int;
  tl_recycled : int;
      (** [recycle] instants. The engine no longer emits them (its
          version freelists are retired); re-imported traces recorded by
          older builds still carry them. *)
  tl_dep_stall : int;
  tl_slab_occ : int;
  tl_cc_imbalance : float;
  tl_votes : (string * int) list;  (** voter track -> vote duration *)
}

val baseline_quantum : int
(** Transactions per nominal batch in the single-layer baselines'
    span attribution (1000, mirroring BOHM's default batch size). *)

val makespan : record -> int
val stage : record -> string -> int
(** Wall window of a stage; 0 when the stage did not run. *)

(** {1 Replay}

    The one replay of a recorded run, shared with {!Critical_path}. *)

val compare_stage : string -> string -> int
(** Pipeline order: sequence, preprocess, rebalance, cc, gc, lock, exec,
    commit, shard_vote; any other stage after these, by name. *)

val parse_blame : string -> (int * string) option
(** [parse_blame "dep_stall:<writer>:<key>"] is [Some (writer, key)];
    any other instant name is [None]. *)

type window = {
  w_start : int;  (** earliest begin across tracks *)
  w_finish : int;  (** latest end across tracks *)
  w_track : string;  (** track of the latest end; the later one on a tie *)
}

val replay :
  Recorder.t ->
  on_span:(track:string -> stage:string -> batch:int -> int -> int -> unit) ->
  on_instant:(name:string -> batch:int -> value:int -> ts:int -> unit) ->
  (int * string, window) Hashtbl.t
(** Replay every track's strictly nested spans, in track creation order.
    [on_span ~track ~stage ~batch begin end] sees each closed span that
    carries a batch; [on_instant] sees every instant. Returns each
    (batch, stage)'s window. An [End] with no open span is skipped
    ({!Chrome.of_string} rejects it). *)

val of_recorder : Recorder.t -> record list
(** Records in ascending batch order, one per recorded batch. *)

val jsonl_line : record -> string
(** One JSON object, no trailing newline. Keys: [batch], [start],
    [finish], [makespan], the fixed [d_<stage>] durations (always
    present, 0 when absent; [d_vote] is the [shard_vote] stage),
    [d_<other>] for non-pipeline stages, [committed], [steals],
    [wakeups], [retry_scans], [recycled], [dep_stall], [slab_occ],
    [cc_imbalance], and a [votes] object keyed by voter track. *)

val write_jsonl : path:string -> record list -> unit

val counters : record list -> (int * string * float) list
(** Chrome counter-track samples [(ts, counter, value)], one group per
    batch at its finish instant: [committed], [stalls]
    (steals+wakeups+retry_scans), [slab_occ], [cc_imbalance]. *)

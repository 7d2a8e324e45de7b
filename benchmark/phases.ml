(* The measurement phases. Each runs in its own process when driven by
   main.ml, so heap numbers belong to one phase of one workload. Every run
   is checked against the serial [Reference] oracle: BOHM's serialization
   order is the input order, so the final state must match key for key. *)

module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Costs = Bohm_runtime.Costs
module Stats = Bohm_txn.Stats
module Value = Bohm_txn.Value
module Reference = Bohm_harness.Reference
module Recorder = Bohm_obs.Recorder
module Timeline = Bohm_obs.Timeline
module Critical_path = Bohm_obs.Critical_path
module Ycsb = Bohm_workload.Ycsb
module On_sim = Bohm_core.Engine.Make (Sim)
module On_real = Bohm_core.Engine.Make (Real)

type size = {
  rows : int;
  sim_txns : int;
  real_txns : int;  (** Per [real_tput] trial. *)
  batch_calls : int;  (** One-batch [run] calls per batch-latency database. *)
  micro_ops : int;
  batch : int option;  (** Overrides every workload's batch size. *)
}

let full =
  {
    rows = 100_000;
    sim_txns = 20_000;
    real_txns = 20_000;
    batch_calls = 40;
    micro_ops = 100_000;
    batch = None;
  }

(* One tenth of [full]; batch calls shrink by four only, so the latency
   sample keeps a reportable median. *)
let quick =
  {
    rows = 10_000;
    sim_txns = 2_000;
    real_txns = 2_000;
    batch_calls = 10;
    micro_ops = 10_000;
    batch = None;
  }

type phase = Sim_runs | Real_runs | Batch_latency | Micro_ops

let phase_name = function
  | Sim_runs -> "sim"
  | Real_runs -> "real"
  | Batch_latency -> "batch"
  | Micro_ops -> "micro"

let phase_of_name = function
  | "sim" -> Some Sim_runs
  | "real" -> Some Real_runs
  | "batch" -> Some Batch_latency
  | "micro" -> Some Micro_ops
  | _ -> None

type result = {
  samples : (string * float list) list;  (** Raw end-to-end samples. *)
  layer : (string * float) list;  (** Per-layer metrics, final names. *)
  attempted : int;
  failed : int;
  errors : string list;
}

let empty = { samples = []; layer = []; attempted = 0; failed = 0; errors = [] }

let merge a b =
  let samples =
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some old -> (k, old @ v) :: List.remove_assoc k acc
        | None -> acc @ [ (k, v) ])
      a.samples b.samples
  in
  {
    samples;
    layer = a.layer @ b.layer;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    errors = a.errors @ b.errors;
  }

(* Mutable accumulator for one phase. *)
type ledger = {
  mutable l_attempted : int;
  mutable l_failed : int;
  mutable l_errors : string list;
  mutable l_samples : (string * float list) list;
  mutable l_layer : (string * float) list;
}

let ledger () =
  { l_attempted = 0; l_failed = 0; l_errors = []; l_samples = []; l_layer = [] }

let sample l name v =
  let old = Option.value (List.assoc_opt name l.l_samples) ~default:[] in
  l.l_samples <- (name, old @ [ v ]) :: List.remove_assoc name l.l_samples

let finish l =
  {
    samples = List.rev l.l_samples;
    layer = l.l_layer;
    attempted = l.l_attempted;
    failed = l.l_failed;
    errors = List.rev l.l_errors;
  }

let now = Unix.gettimeofday

(* A transaction fails when it neither commits nor logically aborts. A
   final state that differs from the oracle's fails every transaction of
   the run, as does a count that cannot add up. *)
let account l ~what ~attempted ~(stats : Stats.t) =
  l.l_attempted <- l.l_attempted + attempted;
  let lost = attempted - stats.committed - stats.logic_aborts in
  if lost <> 0 then begin
    l.l_failed <- l.l_failed + (if lost > 0 then lost else attempted);
    l.l_errors <-
      Printf.sprintf "%s: %d txns attempted, %d committed, %d logic aborts" what
        attempted stats.committed stats.logic_aborts
      :: l.l_errors
  end

let fail_run l ~what ~attempted msg =
  l.l_failed <- l.l_failed + attempted;
  l.l_errors <- Printf.sprintf "%s: %s" what msg :: l.l_errors

let check_state l ~what ~attempted reference read =
  let differ =
    Reference.fold reference ~init:0 (fun k v n ->
        match read k with
        | v' when Value.equal v v' -> n
        | _ -> n + 1
        | exception Not_found -> n + 1)
  in
  if differ > 0 then
    fail_run l ~what ~attempted
      (Printf.sprintf "%d keys differ from Reference" differ)

(* [min] trials, then (when [extend]) more until [deadline], at most 50. *)
let repeat ~min ~extend ~deadline f =
  let rec go acc i =
    if i >= min && ((not extend) || now () > deadline || i >= 50) then List.rev acc
    else go (f i :: acc) (i + 1)
  in
  go [] 0

let oracle ~tables txns =
  let r = Reference.create ~tables Ycsb.initial_value in
  let t0 = now () in
  ignore (Reference.run r txns);
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Sim *)

(* What two runs of one input on the deterministic simulator must agree
   on; latency histograms exist only when traced. *)
let fingerprint (s : Stats.t) =
  (s.txns, s.committed, s.logic_aborts, s.cc_aborts, s.elapsed, s.extra)

type sim_run = { stats : Stats.t; host_s : float; steps : int; probes : int }

let sim_once (w : Workloads.t) size ~obs l ~what txns reference =
  Costs.defaults ();
  Sim.run (fun () ->
      let db =
        On_sim.create
          (Workloads.sim_config ~obs ?batch:size.batch w)
          ~tables:(Workloads.tables ~rows:size.rows w)
          Ycsb.initial_value
      in
      let p0 = On_sim.index_probes db and s0 = Sim.steps () in
      let t0 = now () in
      let stats = On_sim.run db txns in
      let host_s = now () -. t0 in
      let steps = Sim.steps () - s0 and probes = On_sim.index_probes db - p0 in
      let attempted = Array.length txns in
      account l ~what ~attempted ~stats;
      check_state l ~what ~attempted reference (On_sim.read_latest db);
      { stats; host_s; steps; probes })

let sim_phase (w : Workloads.t) size ~seed ~deadline ~e2e ~layers =
  let l = ledger () in
  let tables = Workloads.tables ~rows:size.rows w in
  let txns = w.gen ~rows:size.rows ~count:size.sim_txns ~seed in
  let n = Array.length txns in
  let reference, _ = oracle ~tables txns in
  let runs =
    repeat ~min:(if e2e then 3 else 2) ~extend:e2e ~deadline (fun i ->
        sim_once w size ~obs:false l ~what:(Printf.sprintf "sim trial %d" i) txns
          reference)
  in
  let first = List.hd runs in
  let same what (r : sim_run) =
    if fingerprint r.stats <> fingerprint first.stats then
      fail_run l ~what ~attempted:n "Stats differ from sim trial 0"
  in
  List.iteri
    (fun i r ->
      same (Printf.sprintf "sim trial %d" i) r;
      sample l "sim_tput" (Stats.throughput r.stats);
      sample l "sim_host_tps" (float_of_int n /. r.host_s))
    runs;
  if layers then begin
    let recorder = Recorder.create () in
    let traced =
      Recorder.with_recorder recorder (fun () ->
          sim_once w size ~obs:true l ~what:"traced sim run" txns reference)
    in
    same "traced sim run" traced;
    let host_s = Summary.median (List.map (fun r -> r.host_s) runs) in
    l.l_layer <-
      Layers.sim_timeline (Timeline.of_recorder recorder) ~txns:n
      @ Layers.sim_binding (Critical_path.analyze recorder)
      @ Layers.latency traced.stats
      @ Layers.counters first.stats ~txns:n ~probes:first.probes
      @ [
          ("sim.steps_per_txn", Layers.per n (float_of_int first.steps));
          ("sim.host_ns_per_step", host_s *. 1e9 /. float_of_int first.steps);
          ("obs.overhead_pct", 100. *. ((traced.host_s /. host_s) -. 1.));
        ]
  end;
  finish l

(* ------------------------------------------------------------------ *)
(* Real *)

let real_db (w : Workloads.t) size ~obs =
  On_real.create
    (Workloads.real_config ~obs ?batch:size.batch w)
    ~tables:(Workloads.tables ~rows:size.rows w)
    Ycsb.initial_value

type real_run = {
  gen_s : float;
  create_s : float;
  run_s : float;
  minor_words : float;
  major_gcs : int;
}

(* One [real_tput] trial on a fresh database. Generating the stream and
   bulk-loading the table are its set-up; the collector is settled first
   so every trial starts from the same heap. *)
let real_trial (w : Workloads.t) size ~seed ~obs l ~what reference =
  Gc.full_major ();
  let t0 = now () in
  let txns = w.gen ~rows:size.rows ~count:size.real_txns ~seed in
  let t1 = now () in
  let db = real_db w size ~obs in
  let t2 = now () in
  let g0 = Gc.quick_stat () in
  let stats = On_real.run db txns in
  let t3 = now () in
  let g1 = Gc.quick_stat () in
  let attempted = Array.length txns in
  account l ~what ~attempted ~stats;
  check_state l ~what ~attempted reference (On_real.read_latest db);
  {
    gen_s = t1 -. t0;
    create_s = t2 -. t1;
    run_s = t3 -. t2;
    minor_words = g1.minor_words -. g0.minor_words;
    major_gcs = g1.major_collections - g0.major_collections;
  }

let real_phase (w : Workloads.t) size ~seed ~deadline ~e2e ~layers =
  let l = ledger () in
  let tables = Workloads.tables ~rows:size.rows w in
  let n = size.real_txns in
  let reference, serial_s =
    oracle ~tables (w.gen ~rows:size.rows ~count:n ~seed)
  in
  let runs =
    repeat ~min:(if e2e then 5 else 2) ~extend:e2e ~deadline (fun i ->
        real_trial w size ~seed ~obs:false l
          ~what:(Printf.sprintf "real trial %d" i)
          reference)
  in
  List.iter
    (fun r ->
      sample l "real_tput" (float_of_int n /. r.run_s);
      sample l "setup_s" (r.gen_s +. r.create_s))
    runs;
  let top_heap = (Gc.quick_stat ()).top_heap_words in
  sample l "heap_peak_mb" (float_of_int (top_heap * 8) /. 1e6);
  if layers then begin
    let recorder = Recorder.create () in
    ignore
      (Recorder.with_recorder recorder (fun () ->
           real_trial w size ~seed ~obs:true l ~what:"traced real run" reference));
    let med f = Summary.median (List.map f runs) in
    l.l_layer <-
      Layers.real_traced (Timeline.of_recorder recorder)
        (Critical_path.analyze recorder) ~txns:n
      @ [
          ("runtime.minor_words_per_txn", med (fun r -> Layers.per n r.minor_words));
          ( "runtime.major_gcs_per_ktxn",
            med (fun r -> Layers.per_k n (float_of_int r.major_gcs)) );
          ("workload.gen_us_per_txn", med (fun r -> 1e6 *. Layers.per n r.gen_s));
          ("engine.create_ms", med (fun r -> 1000. *. r.create_s));
          ("harness.serial_tps", float_of_int n /. serial_s);
        ]
  end;
  finish l

(* Wall ms of one [run] call on one batch, on fresh databases fed a
   batch at a time: at least four databases, more while time remains. *)
let batch_phase (w : Workloads.t) size ~seed ~deadline =
  let l = ledger () in
  let batch = Option.value size.batch ~default:w.batch in
  let tables = Workloads.tables ~rows:size.rows w in
  let txns = w.gen ~rows:size.rows ~count:(size.batch_calls * batch) ~seed in
  let reference, _ = oracle ~tables txns in
  ignore
    (repeat ~min:4 ~extend:true ~deadline (fun i ->
         Gc.full_major ();
         let db = real_db w size ~obs:false in
         for c = 0 to size.batch_calls - 1 do
           let chunk = Array.sub txns (c * batch) batch in
           let t0 = now () in
           let stats = On_real.run db chunk in
           sample l "batch_ms" (1000. *. (now () -. t0));
           account l
             ~what:(Printf.sprintf "batch db %d call %d" i c)
             ~attempted:batch ~stats
         done;
         check_state l
           ~what:(Printf.sprintf "batch db %d" i)
           ~attempted:(Array.length txns) reference (On_real.read_latest db)));
  finish l

let micro_phase size =
  let l = ledger () in
  l.l_layer <- Micro.run ~rows:size.rows ~n:size.micro_ops ~reps:3;
  finish l

let run phase w size ~seed ~deadline ~e2e ~layers =
  match phase with
  | Sim_runs -> sim_phase w size ~seed ~deadline ~e2e ~layers
  | Real_runs -> real_phase w size ~seed ~deadline ~e2e ~layers
  | Batch_latency -> batch_phase w size ~seed ~deadline
  | Micro_ops -> micro_phase size

(* ------------------------------------------------------------------ *)
(* Assembly *)

let end_to_end samples =
  let get name = Option.value (List.assoc_opt name samples) ~default:[] in
  let med name = match get name with [] -> None | xs -> Some (Summary.median xs) in
  let pct name p =
    match get name with [] -> None | xs -> Some (Summary.percentile xs p)
  in
  [
    ("sim_tput", med "sim_tput");
    ("sim_host_tps", med "sim_host_tps");
    ("real_tput", med "real_tput");
    ("real_batch_ms_p50", med "batch_ms");
    ("real_batch_ms_p90", pct "batch_ms" 90.);
    ("heap_peak_mb", med "heap_peak_mb");
    ("setup_s", med "setup_s");
  ]
  |> List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v)

(* The metrics of one family in schema order; a declared metric the
   phases did not produce, or a non-finite value, is an error. *)
let select (schema : Schema.metric list) values =
  List.fold_right
    (fun (m : Schema.metric) (ok, errs) ->
      match List.assoc_opt m.name values with
      | Some v when Float.is_finite v -> ((m, v) :: ok, errs)
      | Some _ -> (ok, Printf.sprintf "metric %s is not finite" m.name :: errs)
      | None -> (ok, Printf.sprintf "metric %s was not measured" m.name :: errs))
    schema ([], [])

(** Drivers that regenerate every table and figure of the paper's
    evaluation (§4) on the simulated multicore machine, plus the ablations
    called out in DESIGN.md. Each driver returns its series and prints
    nothing, so front ends print and export them and tests can assert
    the qualitative shapes (who wins, where the crossovers are) without
    re-parsing text.

    Baseline parameters are scaled-down but ratio-preserving versions of
    the paper's (see EXPERIMENTS.md); [?scale] multiplies transaction
    counts, and [?quick] shrinks the swept thread counts for smoke runs. *)

type series = Report.series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float option list) list;
  notes : string list;
}

val print : series -> unit
(** Header, notes and table. *)

val experiments : (string * (?scale:float -> ?quick:bool -> unit -> series list)) list
(** Every driver, keyed by the name used on the bench command line, in
    paper order: fig4 to fig10 and tab9 (the paper's figures), the
    ablation-* benches, flash-crowd and fig4-shards (adaptive CC
    partitioning and multi-shard scaling), latency-profile and
    critical-path (the observability layer's per-phase latencies and
    per-batch binding stages, all six engines), and mvto (BOHM against
    multiversion timestamp ordering). *)

val latency_columns : string list
(** The latency table's columns: p50, p95, p99, p999, mean, stddev and
    count. *)

val latency_rows :
  ?label:string -> Bohm_txn.Stats.t -> (string * float option list) list
(** One {!latency_columns} row per recorded phase of [stats.latency],
    named ["label phase"] (just the phase without [label]). *)

val run_all : ?scale:float -> ?quick:bool -> unit -> series list
(** Run and print every experiment, in paper order; returns every series
    printed. *)

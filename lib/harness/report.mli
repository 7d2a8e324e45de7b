(** Plain-text rendering of experiment results: one aligned table per
    paper figure, engines as columns, the swept parameter as rows —
    directly comparable with the paper's plots. *)

val header : title:string -> unit
(** Boxed section header. *)

val note : string -> unit

val print_series :
  x_label:string -> columns:string list -> rows:(string * float option list) list -> unit
(** Aligned numeric table; [None] cells print as "-". Values are printed
    with thousands grouping (throughputs). *)

val print_kv : (string * string) list -> unit
(** Aligned key/value block (for single-configuration summaries). *)

val json_record :
  title:string ->
  x_label:string ->
  columns:string list ->
  rows:(string * float option list) list ->
  unit
(** Accumulate a series for machine-readable output. The experiment
    drivers call this for every table they print; it costs nothing until
    {!json_write}. *)

val json_write : path:string -> unit
(** Write every recorded series as one JSON document: per series the
    title, x label, columns, full rows, and a ["ceilings"] object mapping
    each column to its maximum value over the sweep — the per-experiment
    throughput ceilings successive PRs diff against (the bench harness's
    [--json] flag). *)

val float_to_string : float -> string
(** 1234567.9 -> "1,234,568" (rounded to integer with separators). *)

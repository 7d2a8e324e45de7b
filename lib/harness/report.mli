(** Plain-text rendering of experiment results: one aligned table per
    paper figure, engines as columns, the swept parameter as rows —
    directly comparable with the paper's plots — and the same tables as
    one JSON document. *)

type series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float option list) list;
  notes : string list;
}
(** One table: a row per swept value, a cell per column; [None] cells
    are absent values. [notes] are printed above the table only. *)

val header : title:string -> unit
(** Boxed section header. *)

val note : string -> unit

val print_series :
  x_label:string -> columns:string list -> rows:(string * float option list) list -> unit
(** Aligned numeric table; [None] cells print as "-". Values are printed
    with thousands grouping (throughputs). *)

val print_kv : (string * string) list -> unit
(** Aligned key/value block (for single-configuration summaries). *)

val json_write : path:string -> series list -> unit
(** Write [series] as one JSON document: per series the title, x label,
    columns, full rows, and a ["ceilings"] object mapping each column to
    its maximum value over the sweep — the per-experiment throughput
    ceilings successive PRs diff against (the bench harness's [--json]
    flag). *)

val float_to_string : float -> string
(** 1234567.9 -> "1,234,568" (rounded to integer with separators). *)

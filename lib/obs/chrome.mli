(** Chrome trace-event JSON export (the format Perfetto and
    [chrome://tracing] load).

    One track (tid) per recorded thread under a single pid 0. Each track
    opens with a ["thread_name"] metadata event, followed by the track's
    events in append order: ["B"]/["E"] duration events for spans,
    ["i"] instant events for point occurrences (steals, wakeups,
    recycles, aborts). Timestamps are the recorded [now_ns] values
    converted to the format's microseconds (so under Sim, 1 "µs" is
    1000 simulated cycles).

    The document is hand-rolled JSON, one event object per line, so the
    repo keeps its no-JSON-dependency rule and {!of_string} can read it
    back line-wise. *)

val escape : string -> string
(** The body of a JSON string literal holding [s]: quote, backslash and
    control characters escaped. *)

val to_string : ?counters:(int * string * float) list -> Recorder.t -> string
(** [counters] (typically {!Timeline.counters}) renders as ["C"] counter
    events on one extra track named ["timeline"], so Perfetto draws
    throughput/stall curves alongside the spans. *)

val write :
  ?counters:(int * string * float) list -> path:string -> Recorder.t -> unit

val of_string : string -> (Recorder.t, string) result
(** Parse a document {!to_string} produced back into a recorder (tracks
    in tid order, events replayed), so [Timeline]/[Critical_path] run on
    saved traces. This is the format's one structural check: it rejects
    an event line missing any of ["ph"]/["ts"]/["pid"]/["tid"]/["name"],
    a phase other than B, E, i, C and M, an E with no open span on its
    track, and a track that ends with a span still open. The
    ["timeline"] counter track is skipped — it is derived data. Only the
    one-event-per-line shape this module emits is supported. *)

val read : path:string -> (Recorder.t, string) result

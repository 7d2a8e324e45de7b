(** Happens-before race detector over the simulator's access trace.

    FastTrack-style (Flanagan & Freund, PLDI 2009): every simulated thread
    carries a vector clock, advanced on spawn/join edges and through
    {e synchronization cells} — cells marked with [Cell.mark_sync] or
    promoted by their first [cas]/[faa]. A sync write releases (joins the
    writer's clock into the cell's), a sync read acquires (joins the
    cell's clock into the reader's), an RMW does both. All other cells are
    {e data cells}: two accesses from different threads, at least one a
    write, with no happens-before path between them, are reported as a
    [Data_race] — one diagnostic per cell, then that cell is muted.

    This checks the repo's publication discipline for real: BOHM's
    per-transaction [refs] and [version.prev]/[version.end_ts] stay plain
    data cells, so the detector verifies they are only ever touched under
    the batch-barrier / watermark edges the design claims. Tracing is
    driven entirely by {!Bohm_runtime.Trace} callbacks — it charges no
    simulated work and perturbs nothing; with no sink installed the hooks
    are dead branches. *)

val with_tracing : Report.t -> (unit -> 'a) -> 'a
(** Install a fresh detector for the duration of [f] (typically wrapped
    around [Sim.run]). Races found are added to the report under the
    [Race] checker. Raises if a trace sink is already installed. *)

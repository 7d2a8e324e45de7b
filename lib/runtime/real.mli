(** Real parallel runtime: OCaml 5 domains and [Atomic] cells.

    Implements {!Runtime_intf.S} with genuine parallelism. Used by the test
    suite to check engine correctness (serializability, linearizable
    counters, absence of lost updates) under real interleavings, by the
    examples, and by the benchmark's wall-clock metrics.

    Threads are pooled domains. [spawn] hands its body to an idle worker
    domain when one exists and creates a domain only when none does;
    [join] waits for the body, not for a domain teardown. A worker whose
    body has returned spins for tens of microseconds, then polls without
    spinning, and exits once it has been idle for a few tens of ms, so a
    burst of [run] calls reuses its domains and none outlives the burst.
    Every spawned body holds a domain of its own while it runs, so the
    live domain count is the number of bodies running at once; keep it
    near the machine's core count. *)

include Runtime_intf.S

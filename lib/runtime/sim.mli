(** Deterministic multicore simulator.

    Implements {!Runtime_intf.S} with cooperatively-scheduled threads built
    on OCaml effect handlers and a virtual clock. The scheduler always
    resumes the runnable thread with the smallest virtual clock, so shared
    operations take effect in global virtual-time order: executions are
    sequentially consistent, deterministic given identical inputs, and
    reproducible.

    Costs (see {!Costs}) model one cache line per {!Cell.t}: MESI-style
    hit/remote-read/ownership-transfer charges, plus a per-line
    [avail]-time reservation that serializes atomic read-modify-writes —
    a cell hammered by [faa] from many threads has a hard throughput
    ceiling, which is the global-timestamp-counter bottleneck the BOHM
    paper identifies in Hekaton and SI.

    {!run} executes a program (which may spawn threads) to completion and
    returns its value. Nested [run]s are rejected. A configuration in which
    no runnable thread can make progress raises {!Deadlock}. *)

include Runtime_intf.S

exception Deadlock of string
(** Raised when every live thread is blocked (or the sole runnable thread
    spins on a condition no other thread can change). *)

val run : ?jitter:Bohm_util.Rng.t -> (unit -> 'a) -> 'a
(** [run body] executes [body] as simulated thread 0 and drives the
    simulation until all spawned threads finish. [?jitter] randomizes the
    scheduling order of threads whose virtual clocks are equal — useful for
    exploring interleavings in property tests; without it ties resume in
    FIFO order. *)

val steps : unit -> int
(** Scheduler resume count of the current (or last) simulation; a cheap
    progress metric for tests. *)

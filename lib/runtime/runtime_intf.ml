(** The execution substrate every engine in this repository is written
    against.

    All five concurrency-control engines (BOHM, Hekaton, SI, Silo-OCC, 2PL)
    are functors over {!S}. Instantiated with {!Real} they run on OCaml 5
    domains with genuine parallelism — this is how the test suite validates
    serializability. Instantiated with {!Sim} they run on the deterministic
    multicore simulator whose virtual clock charges for cache misses,
    cache-line transfers and serialized atomic read-modify-writes — this is
    how the benchmark harness regenerates the paper's 40-core figures on a
    small machine.

    Discipline required of engine code: {e every} mutable location shared
    between threads must be a {!S.Cell.t}. Plain [ref]s/[mutable] fields may
    only be touched by the thread that owns them. This is exactly the
    discipline a C implementation needs for its atomics, and it is what lets
    the simulator account for all coherence traffic. *)

module type S = sig
  (** Shared mutable cells with sequentially-consistent semantics.

      In {!Real} a cell is an [Atomic.t]. In {!Sim} a cell additionally
      models one cache line: reads by non-owners charge a remote-read;
      writes migrate ownership and charge a line transfer; atomic RMWs
      serialize on the line, so a hot cell (e.g. a global timestamp
      counter) has a hard throughput ceiling no matter how many threads
      hammer it. *)
  module Cell : sig
    type 'a t

    val make : 'a -> 'a t
    (** Free of charge in the simulator; allocation is not modelled. *)

    val get : 'a t -> 'a
    val set : 'a t -> 'a -> unit

    val cas : 'a t -> 'a -> 'a -> bool
    (** [cas c expected desired]: atomic compare-and-set. Comparison is
        physical equality, so compare against a value previously obtained
        from [get] (for immediate values such as [int] this coincides with
        structural equality). *)

    val faa : int t -> int -> int
    (** [faa c n] atomically adds [n] and returns the previous value. *)

    val incr : int t -> unit

    val mark_sync : 'a t -> unit
    (** Classify the cell as a {e synchronization} location for the
        optional race tracer ({!Trace}): its accesses carry
        acquire/release ordering and are never themselves reported as
        races. Mark cells that are racy {e by design} — watermarks,
        state words, version-chain heads read without coordination.
        Unmarked cells are treated as published data: conflicting
        accesses from different threads must be ordered by
        synchronization edges or the race detector flags them. Atomic
        read-modify-writes ([cas]/[faa]) promote a cell automatically.
        Free of charge; a no-op on the real runtime. *)
  end

  type thread

  val spawn : (unit -> unit) -> thread
  (** [spawn body] runs [body] on a thread of its own, concurrently with
      the caller and every other spawned body; it may be called from
      inside a body. In {!Sim} the thread is a new simulated core, charged
      [Costs.spawn_cost]. In {!Real} it is a worker domain: an idle one
      left by an earlier body when there is one, a new domain otherwise. *)

  val join : thread -> unit
  (** [join t] returns once [t]'s body has returned, and re-raises the
      exception the body raised, if any. Every write the body made is
      visible to the caller after [join]. Joining does not wait for the
      thread's teardown: in {!Real} the domain parks for the next [spawn]
      and may outlive [join] briefly, exiting after a few tens of ms
      idle. *)

  val work : int -> unit
  (** [work n] burns approximately [n] cycles of thread-local computation
      (simulator: advances the virtual clock; real: a busy loop). *)

  val copy : bytes:int -> unit
  (** Charge the memory-bandwidth cost of moving [bytes] bytes, e.g. when a
      multi-version engine materializes a record version. The payloads in
      this repository are small; the {e declared} record size is charged
      here (DESIGN.md, substitution 2). *)

  val relax : unit -> unit
  (** Spin-wait hint; use inside busy-wait loops. *)

  val now : unit -> float
  (** Seconds. Virtual time in the simulator, wall-clock time otherwise.
      Ratios of durations are meaningful; absolute values are not
      comparable across runtimes. *)

  val now_ns : unit -> int
  (** Integer timestamp for the observability layer ({!Bohm_obs}):
      the calling thread's virtual clock in cycles on the simulator,
      wall-clock nanoseconds ([Unix.gettimeofday]) on the real runtime —
      not monotonic there: the clock can step, backwards too, so a span
      between two samples can come out negative (the latency recorder
      counts such a span as 0). Reading it charges nothing and never
      yields — a run that samples it is schedule-identical to one that
      does not (same discipline as {!Trace}). Like {!now}, only ratios of
      durations are comparable across runtimes. *)

  val without_cost : (unit -> 'a) -> 'a
  (** Run a setup phase (bulk-loading tables, building indexes) without
      charging the virtual clock. Identity on the real runtime. Must not
      be used while worker threads run. *)
end

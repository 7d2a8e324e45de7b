(** Deterministic pseudo-random number generation.

    A [splitmix64] generator: tiny state, high quality, and — unlike
    [Stdlib.Random] — trivially splittable, so every simulated thread and
    every workload generator can own an independent stream derived from a
    single experiment seed. All experiments in this repository are
    reproducible from their seed. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Streams of the parent and child do not overlap in practice. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s future. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool

val distinct : int -> (int -> int option) -> int array
(** [distinct n draw] fills [n] slots by rejection sampling: [draw i]
    proposes slot [i]'s value, or returns [None] to reject the proposal;
    a value already chosen for an earlier slot is rejected too. [draw i]
    is called again until slot [i] is filled, so a generator's stream is
    exactly its sequence of [draw] calls. Terminates only if every slot
    eventually accepts a fresh value. The duplicate check scans the
    chosen prefix: meant for the short footprints of a transaction. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** The per-transaction footprint of a BOHM run: the wrapper built at
    sequencing time, the map from a declared key to its encoded entry
    (read-set entry [i] at [i], write-set entry [j] at [n_rs + j]), the
    probe-once storage-slot cache and CC's per-entry stamps. *)

val key_at : Bohm_txn.Txn.t -> int -> Bohm_txn.Key.t
(** The key at an encoded footprint entry. *)

val fp_find : Bohm_txn.Txn.t -> int array -> Bohm_txn.Key.t -> int
(** [fp_find txn fp_enc k]: the encoded entry of [k] in [txn]'s
    footprint map [fp_enc] (a write-set entry shadows the read-set entry
    for the same key), or [-1] for an undeclared key. Outside the
    functor, like {!key_at}, so the per-read lookup is a direct call. *)

val batch_of : Config.t -> int -> int
(** [batch_of config seq]: the batch of the run's [seq]-th transaction. *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  module T := Types.Make(R)

  val wrap : T.t -> int -> Bohm_txn.Txn.t -> T.wrapped
  (** [wrap t i txn]: the wrapper of the run's [i]-th transaction, at
      timestamp [t.next_ts + i]. Host-side: charges nothing beyond
      creating its cells. *)

  val slot_for :
    T.t -> T.wrapped -> Bohm_txn.Key.t -> T.wrapped T.V.t R.Cell.t
  (** Storage slot of a footprint key, cached at the key's canonical
      entry: the index is probed at most once per distinct key. *)

  val stamp : T.t -> T.wrapped -> int -> T.wrapped T.V.t
  (** CC's stamp at an encoded entry, one charged read: the placeholder
      at a write entry, the annotated version at a read entry. CC
      finishes a batch before execution of it begins, so it is set. *)
end

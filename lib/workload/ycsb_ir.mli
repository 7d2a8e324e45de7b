(** The YCSB generator ported to the static transaction IR
    ([Bohm_analysis_static.Tir]).

    Same profiles and tables as {!Ycsb}, built from its row draws
    ({!Ycsb.update_rows}, {!Ycsb.mix_rows}) — for equal seeds the
    emitted instances lower ({!lower_all}) to
    transactions that are key-for-key and access-for-access identical to
    the closure generator's, with declarations {e derived} by the
    abstract interpreter instead of hand-written. YCSB programs are
    straight-line, so may = must and the inferred footprints are exact. *)

val update_prog : rmws:int -> reads:int -> Bohm_analysis_static.Tir.t
(** Parameters [0 .. rmws-1] are RMW rows (incremented), the rest pure
    read rows. *)

val generate :
  rows:int ->
  theta:float ->
  count:int ->
  seed:int ->
  Ycsb.profile ->
  Bohm_analysis_static.Tir.instance array

val generate_mix :
  rows:int ->
  read_only_fraction:float ->
  scan:int ->
  update_profile:Ycsb.profile ->
  theta:float ->
  count:int ->
  seed:int ->
  Bohm_analysis_static.Tir.instance array

val lower_all :
  Bohm_analysis_static.Tir.instance array -> Bohm_txn.Txn.t array
(** [Certify.lower] each instance: declarations are the inferred
    may-sets. *)

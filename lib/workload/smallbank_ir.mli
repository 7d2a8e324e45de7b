(** The SmallBank generator ported to the static transaction IR.

    Same five procedures and same tables as {!Smallbank}, and the same
    stream: instances are built from {!Smallbank.draws}, so for equal
    seeds each carries the profile and arguments of the closure
    transaction at its position, and its lowering performs the identical
    ctx call sequence (reads, writes, spin) — footprints, final states
    and deterministic-Sim stats all agree. Unlike YCSB, two procedures exercise the abstract
    interpreter's path join:

    - [TransactSavings] writes savings only on the non-overdraft branch:
      savings is a {e may}-write but not a {e must}-write;
    - [WriteCheck] writes checking on {e both} branches of the overdraft
      test: a must-write behind a data-dependent conditional. *)

val prog : spin:int -> Smallbank.kind -> Bohm_analysis_static.Tir.t
(** The IR program for one procedure. Parameter conventions:
    [Balance c], [DepositChecking c amount], [TransactSavings c amount]
    (amount may be negative), [Amalgamate c1 c2],
    [WriteCheck c amount]. *)

val generate :
  customers:int ->
  count:int ->
  seed:int ->
  ?spin:int ->
  unit ->
  Bohm_analysis_static.Tir.instance array
(** The instances of {!Smallbank.draws} [None], position for position
    {!Smallbank.generate}'s transactions. *)

val generate_kind :
  customers:int ->
  count:int ->
  seed:int ->
  ?spin:int ->
  Smallbank.kind ->
  Bohm_analysis_static.Tir.instance array
(** The instances of {!Smallbank.draws} [(Some kind)]. *)

val lower_all :
  Bohm_analysis_static.Tir.instance array -> Bohm_txn.Txn.t array

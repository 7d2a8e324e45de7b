(** The SmallBank benchmark (Cahill [9]; paper §4.3).

    Three tables — Customer (name → id), Savings and Checking (id →
    balance, 8-byte records) — and five transaction profiles chosen
    uniformly: Balance (read-only), DepositChecking, TransactSavings (may
    abort on insufficient funds), Amalgamate, WriteCheck (overdraft
    penalty). Contention is controlled solely by the customer count: 50
    customers is the paper's high-contention setting, 100 000 its
    low-contention one. Each transaction spins for 50 µs of local work
    (paper: "each transaction spins for 50 microseconds"). *)

type kind = Balance | DepositChecking | TransactSavings | Amalgamate | WriteCheck

val kind_name : kind -> string

val customer_tid : int
val savings_tid : int
val checking_tid : int

val tables : customers:int -> Bohm_storage.Table.t array

val initial_balance : int
(** Starting savings and checking balance per customer, in cents. *)

val initial_value : Bohm_txn.Key.t -> Bohm_txn.Value.t

val spin_cycles : int
(** 50 µs at the simulated 2 GHz clock. *)

val draws :
  customers:int ->
  count:int ->
  seed:int ->
  kind option ->
  (int -> kind -> int array -> 'a) ->
  'a array
(** The random draws of a stream: [draws ... build] is
    [build id kind args] for each transaction [id], built as soon as it
    is drawn. [kind] is uniform over the five profiles, or always [k]
    for [Some k]; the arguments are —
    [[|c|]] for Balance, [[|c1; c2|]] for Amalgamate ([c2 <> c1] unless
    there is one customer), [[|c; amount|]] otherwise, with customers
    drawn uniformly. The closure generators below and the IR port
    [Smallbank_ir] build their transactions from these draws, so equal
    seeds give the same stream in both. Raises [Invalid_argument] unless
    [customers > 0]. *)

val generate :
  customers:int -> count:int -> seed:int -> ?spin:int -> unit -> Bohm_txn.Txn.t array
(** The transactions of {!draws} [None]: a uniform mix over the five
    profiles. [?spin] overrides the per-transaction busy work (default
    {!spin_cycles}). *)

val generate_kind :
  customers:int -> count:int -> seed:int -> ?spin:int -> kind -> Bohm_txn.Txn.t array
(** The transactions of {!draws} [(Some kind)]: a stream of a single
    profile, for targeted tests. *)

val total_money : (Bohm_txn.Key.t -> Bohm_txn.Value.t) -> customers:int -> int
(** Sum of every savings and checking balance. Deposit-free profiles
    conserve it; deposits/withdrawals change it by their committed
    amounts, so tests use profile-restricted streams. *)

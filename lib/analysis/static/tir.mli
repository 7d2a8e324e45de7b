(** A declarative transaction IR whose footprints are statically
    deducible.

    The paper's §2.3 contract — every transaction's read- and write-set
    is known before it executes — is what BOHM's whole pipeline trusts
    blindly. Closure transactions ({!Bohm_txn.Txn.t}) can only be checked
    {e dynamically}, after a bad declaration has already corrupted a run
    (the [Bohm_analysis.Footprint] shim). Transactions authored in this
    IR are first-order data: {!Absint} computes sound may/must footprint
    over-approximations from the program text alone, {!Certify} derives
    declarations automatically, and {!lower_with} erases the IR into the
    ordinary closure representation, so IR transactions run on all six
    engines unchanged.

    The IR is deliberately small: straight-line reads/writes/RMWs over
    keys computed by {e parameter arithmetic} (key expressions may not
    depend on data read at runtime — exactly the deducibility the paper
    assumes), bounded conditionals over runtime values, and logic-requested
    abort. There are no loops; generators unroll. *)

(** Index expressions: integer arithmetic over the instance parameters.
    Fully evaluable at bind time — this is the "key arithmetic" the
    abstract interpreter resolves exactly. *)
type iexp =
  | Int of int
  | Param of int  (** The instance's [args.(i)]. *)
  | Iadd of iexp * iexp
  | Isub of iexp * iexp
  | Imul of iexp * iexp
  | Imod of iexp * iexp  (** [invalid_arg] on a non-positive modulus. *)

type key = { ktable : int; krow : iexp }

(** Value expressions: integer arithmetic over parameters and registers
    (values previously read). Registers are runtime data — anything
    flowing through one is opaque to the abstract interpreter. *)
type vexp =
  | Vint of int
  | Vparam of int
  | Vreg of int
  | Vadd of vexp * vexp
  | Vsub of vexp * vexp

type cmp = Lt | Le | Eq | Ne | Ge | Gt

type cond = { op : cmp; lhs : vexp; rhs : vexp }

type stmt =
  | Read of int * key  (** [reg <- read k]; defines the register. *)
  | Write of key * vexp
  | Rmw of int * key * vexp
      (** [reg <- read k; write k v] — [v] may use the just-read
          register. One combined combinator so read-modify-writes keep
          the read-then-write access order every engine expects. *)
  | Spin of iexp  (** Burn parameter-determined local-work cycles. *)
  | If of cond * stmt list * stmt list  (** Bounded conditional. *)
  | Abort  (** Logic-requested abort; ends the transaction. *)

type t = private {
  tname : string;
  nparams : int;
  nregs : int;  (** Highest register index + 1 (register file size). *)
  body : stmt list;
}

val make : name:string -> nparams:int -> stmt list -> t
(** Validates the program: every [Param]/[Vparam] index is within
    [nparams], every register is defined (by a [Read]/[Rmw] on all paths
    reaching its use) before any [Vreg] use. [invalid_arg] otherwise. *)

type instance = private { prog : t; id : int; args : int array }
(** A program with its parameters bound — the unit the abstract
    interpreter analyzes and the engines execute. *)

val instantiate : t -> id:int -> args:int array -> instance
(** [invalid_arg] unless [Array.length args = nparams]. *)

val eval_key : args:int array -> key -> Bohm_txn.Key.t
(** [invalid_arg] (via {!Bohm_txn.Key.make}) if the row evaluates
    negative. *)

val lower_with :
  read_set:Bohm_txn.Key.t list ->
  write_set:Bohm_txn.Key.t list ->
  instance ->
  Bohm_txn.Txn.t
(** Erase to the closure representation under {e explicit} declared sets
    (the certifier's mutant tests under-declare on purpose; the normal
    path is [Certify.lower], which derives sound declarations). The
    lowered logic interprets the body: registers hold integer payloads
    ({!Bohm_txn.Value.to_int} — IR transactions model live rows),
    [Abort] yields [Txn.Abort], falling off the end yields
    [Txn.Commit]. *)

val pp : Format.formatter -> instance -> unit

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Table = Bohm_storage.Table
module Rng = Bohm_util.Rng

type kind = Balance | DepositChecking | TransactSavings | Amalgamate | WriteCheck

let kind_name = function
  | Balance -> "Balance"
  | DepositChecking -> "DepositChecking"
  | TransactSavings -> "TransactSavings"
  | Amalgamate -> "Amalgamate"
  | WriteCheck -> "WriteCheck"

let customer_tid = 0
let savings_tid = 1
let checking_tid = 2

let tables ~customers =
  [|
    Table.make ~tid:customer_tid ~name:"customer" ~rows:customers ~record_bytes:64;
    Table.make ~tid:savings_tid ~name:"savings" ~rows:customers ~record_bytes:8;
    Table.make ~tid:checking_tid ~name:"checking" ~rows:customers ~record_bytes:8;
  |]

let initial_balance = 10_000

let initial_value k =
  (* Customer rows map a name to its id; balances start at
     [initial_balance] cents. *)
  if Key.table k = customer_tid then Value.of_int (Key.row k)
  else Value.of_int initial_balance

let spin_cycles = 100_000 (* 50 us at 2 GHz *)

let customer c = Key.make ~table:customer_tid ~row:c
let savings c = Key.make ~table:savings_tid ~row:c
let checking c = Key.make ~table:checking_tid ~row:c

let balance_txn ~id ~spin c =
  Txn.make ~id
    ~read_set:[ customer c; savings c; checking c ]
    ~write_set:[]
    (fun ctx ->
      ignore (ctx.Txn.read (customer c));
      ignore (ctx.Txn.read (savings c));
      ignore (ctx.Txn.read (checking c));
      ctx.Txn.spin spin;
      Txn.Commit)

let deposit_checking_txn ~id ~spin c amount =
  Txn.make ~id
    ~read_set:[ customer c; checking c ]
    ~write_set:[ checking c ]
    (fun ctx ->
      ignore (ctx.Txn.read (customer c));
      ctx.Txn.write (checking c) (Value.add (ctx.Txn.read (checking c)) amount);
      ctx.Txn.spin spin;
      Txn.Commit)

let transact_savings_txn ~id ~spin c amount =
  Txn.make ~id
    ~read_set:[ customer c; savings c ]
    ~write_set:[ savings c ]
    (fun ctx ->
      ignore (ctx.Txn.read (customer c));
      let updated = Value.add (ctx.Txn.read (savings c)) amount in
      ctx.Txn.spin spin;
      if Value.to_int updated < 0 then Txn.Abort
      else begin
        ctx.Txn.write (savings c) updated;
        Txn.Commit
      end)

let amalgamate_txn ~id ~spin c1 c2 =
  Txn.make ~id
    ~read_set:[ customer c1; customer c2; savings c1; checking c1; checking c2 ]
    ~write_set:[ savings c1; checking c1; checking c2 ]
    (fun ctx ->
      ignore (ctx.Txn.read (customer c1));
      ignore (ctx.Txn.read (customer c2));
      let s1 = ctx.Txn.read (savings c1) in
      let c1v = ctx.Txn.read (checking c1) in
      let moved = Value.to_int s1 + Value.to_int c1v in
      ctx.Txn.write (savings c1) Value.zero;
      ctx.Txn.write (checking c1) Value.zero;
      ctx.Txn.write (checking c2) (Value.add (ctx.Txn.read (checking c2)) moved);
      ctx.Txn.spin spin;
      Txn.Commit)

let write_check_txn ~id ~spin c amount =
  Txn.make ~id
    ~read_set:[ customer c; savings c; checking c ]
    ~write_set:[ checking c ]
    (fun ctx ->
      ignore (ctx.Txn.read (customer c));
      let total =
        Value.to_int (ctx.Txn.read (savings c))
        + Value.to_int (ctx.Txn.read (checking c))
      in
      let debit = if amount > total then amount + 100 (* overdraft penalty *) else amount in
      ctx.Txn.write (checking c) (Value.add (ctx.Txn.read (checking c)) (-debit));
      ctx.Txn.spin spin;
      Txn.Commit)

let kinds = [| Balance; DepositChecking; TransactSavings; Amalgamate; WriteCheck |]

(* Customer first, then the per-kind amount or partner; Amalgamate's
   partner is redrawn until it differs from the first customer. *)
let draw_args rng customers kind =
  let c = Rng.int rng customers in
  match kind with
  | Balance -> [| c |]
  | DepositChecking | WriteCheck -> [| c; 1 + Rng.int rng 100 |]
  | TransactSavings -> [| c; Rng.int rng 200 - 100 |]
  | Amalgamate when customers = 1 -> [| c; c |]
  | Amalgamate ->
      Rng.distinct 2 (fun i -> Some (if i = 0 then c else Rng.int rng customers))

let draws ~customers ~count ~seed kind build =
  if customers <= 0 then
    invalid_arg "Smallbank.generate: customers must be positive";
  let rng = Rng.create ~seed in
  Array.init count (fun id ->
      let kind =
        match kind with
        | Some k -> k
        | None -> kinds.(Rng.int rng (Array.length kinds))
      in
      build id kind (draw_args rng customers kind))

let make_txn ~spin id kind args =
  match kind with
  | Balance -> balance_txn ~id ~spin args.(0)
  | DepositChecking -> deposit_checking_txn ~id ~spin args.(0) args.(1)
  | TransactSavings -> transact_savings_txn ~id ~spin args.(0) args.(1)
  | Amalgamate -> amalgamate_txn ~id ~spin args.(0) args.(1)
  | WriteCheck -> write_check_txn ~id ~spin args.(0) args.(1)

let generate ~customers ~count ~seed ?(spin = spin_cycles) () =
  draws ~customers ~count ~seed None (make_txn ~spin)

let generate_kind ~customers ~count ~seed ?(spin = spin_cycles) kind =
  draws ~customers ~count ~seed (Some kind) (make_txn ~spin)

let total_money read ~customers =
  let total = ref 0 in
  for c = 0 to customers - 1 do
    total := !total + Value.to_int (read (savings c)) + Value.to_int (read (checking c))
  done;
  !total

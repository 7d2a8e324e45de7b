module Tir = Bohm_analysis_static.Tir
module Certify = Bohm_analysis_static.Certify

let cust p = { Tir.ktable = Smallbank.customer_tid; krow = Tir.Param p }
let sav p = { Tir.ktable = Smallbank.savings_tid; krow = Tir.Param p }
let chk p = { Tir.ktable = Smallbank.checking_tid; krow = Tir.Param p }

(* Each program mirrors the corresponding closure in [Smallbank]
   statement-for-statement, so the lowered logic issues the identical ctx
   call sequence. *)
let prog ~spin kind =
  let sp = Tir.Spin (Tir.Int spin) in
  match kind with
  | Smallbank.Balance ->
      Tir.make ~name:"sb-balance" ~nparams:1
        [ Tir.Read (0, cust 0); Tir.Read (1, sav 0); Tir.Read (2, chk 0); sp ]
  | Smallbank.DepositChecking ->
      Tir.make ~name:"sb-deposit-checking" ~nparams:2
        [
          Tir.Read (0, cust 0);
          Tir.Rmw (1, chk 0, Tir.Vadd (Tir.Vreg 1, Tir.Vparam 1));
          sp;
        ]
  | Smallbank.TransactSavings ->
      (* savings is written only when the balance stays non-negative: a
         may-write, not a must-write. *)
      Tir.make ~name:"sb-transact-savings" ~nparams:2
        [
          Tir.Read (0, cust 0);
          Tir.Read (1, sav 0);
          sp;
          Tir.If
            ( { Tir.op = Tir.Lt;
                lhs = Tir.Vadd (Tir.Vreg 1, Tir.Vparam 1);
                rhs = Tir.Vint 0;
              },
              [ Tir.Abort ],
              [ Tir.Write (sav 0, Tir.Vadd (Tir.Vreg 1, Tir.Vparam 1)) ] );
        ]
  | Smallbank.Amalgamate ->
      Tir.make ~name:"sb-amalgamate" ~nparams:2
        [
          Tir.Read (0, cust 0);
          Tir.Read (1, cust 1);
          Tir.Read (2, sav 0);
          Tir.Read (3, chk 0);
          Tir.Write (sav 0, Tir.Vint 0);
          Tir.Write (chk 0, Tir.Vint 0);
          Tir.Rmw
            (4, chk 1, Tir.Vadd (Tir.Vreg 4, Tir.Vadd (Tir.Vreg 2, Tir.Vreg 3)));
          sp;
        ]
  | Smallbank.WriteCheck ->
      (* Both branches RMW checking (with or without the overdraft
         penalty): a must-write behind a data-dependent conditional.
         Checking is read before savings — the closure's [sav + chk] sum
         evaluates its ctx reads right to left. *)
      Tir.make ~name:"sb-write-check" ~nparams:2
        [
          Tir.Read (0, cust 0);
          Tir.Read (1, chk 0);
          Tir.Read (2, sav 0);
          Tir.If
            ( { Tir.op = Tir.Gt;
                lhs = Tir.Vparam 1;
                rhs = Tir.Vadd (Tir.Vreg 1, Tir.Vreg 2);
              },
              [
                Tir.Rmw
                  ( 3,
                    chk 0,
                    Tir.Vsub (Tir.Vreg 3, Tir.Vadd (Tir.Vparam 1, Tir.Vint 100))
                  );
              ],
              [ Tir.Rmw (3, chk 0, Tir.Vsub (Tir.Vreg 3, Tir.Vparam 1)) ] );
          sp;
        ]

(* One program per kind, shared by every instance of the stream. *)
let instance ~spin =
  let progs = Hashtbl.create 5 in
  fun id kind args ->
    let p =
      match Hashtbl.find_opt progs kind with
      | Some p -> p
      | None ->
          let p = prog ~spin kind in
          Hashtbl.add progs kind p;
          p
    in
    Tir.instantiate p ~id ~args

let generate ~customers ~count ~seed ?(spin = Smallbank.spin_cycles) () =
  Smallbank.draws ~customers ~count ~seed None (instance ~spin)

let generate_kind ~customers ~count ~seed ?(spin = Smallbank.spin_cycles) kind =
  Smallbank.draws ~customers ~count ~seed (Some kind) (instance ~spin)

let lower_all insts = Array.map Certify.lower insts

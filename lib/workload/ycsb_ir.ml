module Tir = Bohm_analysis_static.Tir
module Certify = Bohm_analysis_static.Certify

let key0 row = { Tir.ktable = 0; krow = row }

(* Mirrors [Ycsb.update_txn]: each RMW reads then increments its row, then
   the pure reads — the identical ctx access order. *)
let update_prog ~rmws ~reads =
  let body =
    List.init rmws (fun i ->
        Tir.Rmw (i, key0 (Tir.Param i), Tir.Vadd (Tir.Vreg i, Tir.Vint 1)))
    @ List.init reads (fun j ->
          Tir.Read (rmws + j, key0 (Tir.Param (rmws + j))))
  in
  Tir.make
    ~name:(Printf.sprintf "ycsb-%drmw-%dr" rmws reads)
    ~nparams:(rmws + reads) body

let read_only_prog ~scan =
  Tir.make ~name:(Printf.sprintf "ycsb-scan%d" scan) ~nparams:scan
    (List.init scan (fun i -> Tir.Read (i, key0 (Tir.Param i))))

let generate ~rows ~theta ~count ~seed profile =
  let prog = update_prog ~rmws:profile.Ycsb.rmws ~reads:profile.Ycsb.reads in
  Ycsb.update_rows ~rows ~theta ~count ~seed profile (fun id args ->
      Tir.instantiate prog ~id ~args)

let generate_mix ~rows ~read_only_fraction ~scan ~update_profile ~theta ~count
    ~seed =
  let update =
    update_prog ~rmws:update_profile.Ycsb.rmws ~reads:update_profile.Ycsb.reads
  in
  let read_only = read_only_prog ~scan in
  Ycsb.mix_rows ~rows ~read_only_fraction ~scan ~update_profile ~theta ~count
    ~seed (fun id -> function
    | Ycsb.Scan args -> Tir.instantiate read_only ~id ~args
    | Ycsb.Update args -> Tir.instantiate update ~id ~args)

let lower_all insts = Array.map Certify.lower insts

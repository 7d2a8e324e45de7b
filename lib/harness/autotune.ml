module Stats = Bohm_txn.Stats

type result = {
  cc_threads : int;
  exec_threads : int;
  throughput : float;
  samples : (int * float) list;
}

let search ?(probe_txns = 4_000) ~threads spec txns =
  if threads < 2 then invalid_arg "Autotune.search: need at least 2 threads";
  let prefix =
    if Array.length txns <= probe_txns then txns else Array.sub txns 0 probe_txns
  in
  let samples = ref [] in
  let measure cc =
    match List.assoc_opt cc !samples with
    | Some throughput -> throughput
    | None ->
        let bohm =
          Bohm_core.Config.make ~cc_threads:cc ~exec_threads:(threads - cc) ()
        in
        let throughput =
          Stats.throughput (Runner.run_sim (Runner.Bohm bohm) spec prefix)
        in
        samples := !samples @ [ (cc, throughput) ];
        throughput
  in
  (* Coarse sweep over eighth splits, then refine one step to each side
     of the winner. *)
  let clamp cc = max 1 (min (threads - 1) cc) in
  let coarse =
    List.sort_uniq compare
      (List.map
         (fun cc_fraction -> fst (Runner.split ~cc_fraction threads))
         [ 0.125; 0.25; 0.375; 0.5; 0.625 ])
  in
  List.iter (fun cc -> ignore (measure cc)) coarse;
  let best () =
    List.fold_left
      (fun (bc, bt) (cc, t) -> if t > bt then (cc, t) else (bc, bt))
      (-1, neg_infinity) !samples
  in
  let bc, _ = best () in
  let step = max 1 (threads / 8) in
  ignore (measure (clamp (bc - step)));
  ignore (measure (clamp (bc + step)));
  let bc, _ = best () in
  ignore (measure (clamp (bc - 1)));
  ignore (measure (clamp (bc + 1)));
  let cc_threads, throughput = best () in
  { cc_threads; exec_threads = threads - cc_threads; throughput; samples = !samples }

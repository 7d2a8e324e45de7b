(* Micro-ops timed through public calls on either runtime: [R.now_ns] is
   host wall ns on [Real] and the calling thread's charged cycles on
   [Sim], so one functor yields both sides of the Sim/Real calibration. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Rng = Bohm_util.Rng

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module V = Bohm_core.Version.Make (R)
  module Store = Bohm_storage.Store.Make (R)

  let timed f =
    let t0 = R.now_ns () in
    let n = f () in
    float_of_int (R.now_ns () - t0) /. float_of_int (max 1 n)

  (* [slab_placeholder]: one key's chain grown by [n] placeholders. *)
  let insert ~n =
    let al = V.alloc_make ~owner:0 () in
    let head = ref (V.initial Value.zero) in
    timed (fun () ->
        for ts = 1 to n do
          head := V.slab_placeholder al ~batch:0 ~ts ~producer:() ~prev:!head
        done;
        n)

  (* [truncate_retire], per version dropped: [n / depth] chains of
     [depth] versions, one slab per batch, cut down to their newest
     version so every older slab retires. *)
  let truncate ~n =
    let depth = 8 in
    let al = V.alloc_make ~owner:0 () in
    let heads = Array.init (max 1 (n / depth)) (fun _ -> V.initial Value.zero) in
    for ts = 1 to depth do
      Array.iteri
        (fun i prev ->
          heads.(i) <- V.slab_placeholder al ~batch:ts ~ts ~producer:() ~prev)
        heads
    done;
    timed (fun () ->
        Array.fold_left
          (fun acc h -> acc + fst (V.truncate_retire al h ~gc_ts:depth))
          0 heads)

  (* [Store.get] on the benchmark's hash store, uniform keys. *)
  let get ~rows ~n =
    let tables = Bohm_workload.Ycsb.tables ~rows ~record_bytes:8 in
    let store = Store.create_hash ~tables (fun _ -> ()) in
    let rng = Rng.create ~seed:7 in
    let keys = Array.init n (fun _ -> Key.make ~table:0 ~row:(Rng.int rng rows)) in
    timed (fun () ->
        Array.iter (fun k -> Store.get store k) keys;
        n)
end

module On_real = Make (Bohm_runtime.Real)
module On_sim = Make (Bohm_runtime.Sim)
module Sync_real = Bohm_runtime.Sync.Make (Bohm_runtime.Real)

(* Two-domain [Barrier.await] round trip: the batch-boundary handshake
   every [Real] run pays per batch. *)
let barrier_round_ns ~n =
  let module Real = Bohm_runtime.Real in
  let b = Sync_real.Barrier.create ~parties:2 in
  let peer =
    Real.spawn (fun () ->
        for _ = 1 to n do
          Sync_real.Barrier.await b
        done)
  in
  let ns =
    On_real.timed (fun () ->
        for _ = 1 to n do
          Sync_real.Barrier.await b
        done;
        n)
  in
  Real.join peer;
  ns

let sim f =
  Bohm_runtime.Costs.defaults ();
  Bohm_runtime.Sim.run f

(* Host-side medians over [reps] repetitions; the Sim side is exact. *)
let run ~rows ~n ~reps =
  let med f = Summary.median (List.init reps (fun _ -> f ())) in
  let insert_ns = med (fun () -> On_real.insert ~n) in
  let truncate_ns = med (fun () -> On_real.truncate ~n) in
  let get_ns = med (fun () -> On_real.get ~rows ~n) in
  let insert_cyc = sim (fun () -> On_sim.insert ~n) in
  let truncate_cyc = sim (fun () -> On_sim.truncate ~n) in
  let get_cyc = sim (fun () -> On_sim.get ~rows ~n) in
  [
    ("version.insert_ns", insert_ns);
    ("version.insert_cyc", insert_cyc);
    ("version.truncate_ns_per_ver", truncate_ns);
    ("version.truncate_cyc_per_ver", truncate_cyc);
    ("storage.get_ns", get_ns);
    ("storage.get_cyc", get_cyc);
    ("sync.barrier_round_ns", med (fun () -> barrier_round_ns ~n:(max 100 (n / 10))));
    ( "calib.max_ratio_dev",
      Layers.max_ratio_dev
        [ (insert_ns, insert_cyc); (truncate_ns, truncate_cyc); (get_ns, get_cyc) ] );
  ]

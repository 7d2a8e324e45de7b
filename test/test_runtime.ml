(* Tests for Bohm_runtime: the deterministic simulator, the real domains
   runtime, and the runtime-generic sync primitives. *)

module Rng = Bohm_util.Rng
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Costs = Bohm_runtime.Costs

module Sim_sync = Bohm_runtime.Sync.Make (Sim)
module Real_sync = Bohm_runtime.Sync.Make (Real)

let () = Costs.defaults ()

(* --- Simulator basics --- *)

let test_sim_returns_value () =
  Alcotest.(check int) "value" 42 (Sim.run (fun () -> 42))

let test_sim_counter_faa () =
  let total =
    Sim.run (fun () ->
        let c = Sim.Cell.make 0 in
        let worker () =
          for _ = 1 to 1000 do
            ignore (Sim.Cell.faa c 1)
          done
        in
        let threads = List.init 4 (fun _ -> Sim.spawn worker) in
        List.iter Sim.join threads;
        Sim.Cell.get c)
  in
  Alcotest.(check int) "all increments counted" 4000 total

let test_sim_cas_exclusive () =
  (* Exactly one thread wins each CAS from the same expected value. *)
  let winners =
    Sim.run (fun () ->
        let c = Sim.Cell.make 0 in
        let wins = Sim.Cell.make 0 in
        let worker () = if Sim.Cell.cas c 0 1 then Sim.Cell.incr wins in
        let threads = List.init 8 (fun _ -> Sim.spawn worker) in
        List.iter Sim.join threads;
        Sim.Cell.get wins)
  in
  Alcotest.(check int) "one winner" 1 winners

let test_sim_deterministic () =
  let run () =
    Sim.run (fun () ->
        let c = Sim.Cell.make 0 in
        let worker id () =
          for i = 1 to 100 do
            Sim.work (10 + ((id + i) mod 7));
            ignore (Sim.Cell.faa c 1)
          done
        in
        let threads = List.init 6 (fun id -> Sim.spawn (worker id)) in
        List.iter Sim.join threads;
        Sim.now ())
  in
  let t1 = run () and s1 = Sim.steps () in
  let t2 = run () and s2 = Sim.steps () in
  Alcotest.(check (float 0.)) "same virtual time" t1 t2;
  Alcotest.(check int) "same step count" s1 s2

let test_sim_jitter_deterministic_given_seed () =
  let run seed =
    Sim.run ~jitter:(Rng.create ~seed) (fun () ->
        let c = Sim.Cell.make 0 in
        let worker () =
          for _ = 1 to 50 do
            ignore (Sim.Cell.faa c 1)
          done
        in
        let threads = List.init 4 (fun _ -> Sim.spawn worker) in
        List.iter Sim.join threads;
        Sim.now ())
  in
  Alcotest.(check (float 0.)) "same seed same schedule" (run 5) (run 5)

let test_sim_work_advances_clock () =
  let elapsed =
    Sim.run (fun () ->
        Sim.work 2_000_000;
        Sim.now ())
  in
  (* 2M cycles at 2 GHz = 1 ms. *)
  Alcotest.(check (float 1e-9)) "1ms" 0.001 elapsed

let test_sim_without_cost_is_free () =
  let elapsed =
    Sim.run (fun () ->
        Sim.without_cost (fun () -> Sim.work 10_000_000);
        Sim.now ())
  in
  Alcotest.(check (float 1e-12)) "free" 0. elapsed

let test_sim_copy_charges_bandwidth () =
  let elapsed =
    Sim.run (fun () ->
        Sim.copy ~bytes:4_000_000;
        Sim.now ())
  in
  let expected = 4_000_000. /. float_of_int !Costs.bytes_per_cycle /. 2.0e9 in
  Alcotest.(check (float 1e-9)) "bandwidth charge" expected elapsed

let test_sim_join_propagates_clock () =
  let elapsed =
    Sim.run (fun () ->
        let t = Sim.spawn (fun () -> Sim.work 1_000_000) in
        Sim.join t;
        Sim.now ())
  in
  Alcotest.(check bool) "joiner sees child time" true (elapsed >= 0.0005)

let test_sim_join_finished_thread () =
  let v =
    Sim.run (fun () ->
        let c = Sim.Cell.make 0 in
        let t = Sim.spawn (fun () -> Sim.Cell.set c 7) in
        (* Let the child certainly finish first. *)
        Sim.work 1_000_000;
        Sim.join t;
        Sim.Cell.get c)
  in
  Alcotest.(check int) "set visible after join" 7 v

let test_sim_contended_faa_serializes () =
  (* N threads hammering one cell must take at least
     N * ops * (atomic_rmw + line_transfer) cycles of virtual time. *)
  let n = 4 and ops = 500 in
  let elapsed =
    Sim.run (fun () ->
        let c = Sim.Cell.make 0 in
        let worker () =
          for _ = 1 to ops do
            ignore (Sim.Cell.faa c 1)
          done
        in
        let threads = List.init n (fun _ -> Sim.spawn worker) in
        List.iter Sim.join threads;
        Sim.now ())
  in
  let serial_floor =
    float_of_int (n * ops * (!Costs.atomic_rmw + !Costs.line_transfer))
    /. 2.0e9
  in
  (* Threads start staggered by [spawn_cost], so the first few operations
     per thread are uncontended; allow 5% slack on the serial floor. *)
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.6f >= serial floor %.6f" elapsed serial_floor)
    true
    (elapsed >= serial_floor *. 0.95)

let test_sim_uncontended_cells_scale () =
  (* Threads on private cells should not serialize: makespan ~= one
     thread's work, far below the serialized floor. *)
  let n = 4 and ops = 500 in
  let elapsed =
    Sim.run (fun () ->
        let worker () =
          let c = Sim.Cell.make 0 in
          for _ = 1 to ops do
            ignore (Sim.Cell.faa c 1)
          done
        in
        let threads = List.init n (fun _ -> Sim.spawn worker) in
        List.iter Sim.join threads;
        Sim.now ())
  in
  let serialized =
    float_of_int (n * ops * (!Costs.atomic_rmw + !Costs.line_transfer))
    /. 2.0e9
  in
  Alcotest.(check bool) "parallel speedup" true (elapsed < serialized /. 2.)

let test_sim_deadlock_detected () =
  Alcotest.(check bool) "deadlock raised" true
    (try
       Sim.run (fun () ->
           let c = Sim.Cell.make 0 in
           Sim_sync.spin_until (fun () -> Sim.Cell.get c = 1));
       false
     with Sim.Deadlock _ -> true)

let test_sim_nested_run_rejected () =
  Alcotest.(check bool) "nested rejected" true
    (try
       Sim.run (fun () -> Sim.run (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_sim_exception_propagates () =
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      Sim.run (fun () -> failwith "boom"))

let test_sim_many_threads () =
  let total =
    Sim.run (fun () ->
        let c = Sim.Cell.make 0 in
        let threads =
          List.init 44 (fun _ -> Sim.spawn (fun () -> Sim.Cell.incr c))
        in
        List.iter Sim.join threads;
        Sim.Cell.get c)
  in
  Alcotest.(check int) "44 threads" 44 total

let test_sim_visibility_order () =
  (* Writer publishes data then flag; a reader that sees the flag must see
     the data (sequential consistency of the simulated memory). *)
  let ok =
    Sim.run (fun () ->
        let data = Sim.Cell.make 0 and flag = Sim.Cell.make 0 in
        let writer () =
          Sim.Cell.set data 99;
          Sim.Cell.set flag 1
        in
        let result = Sim.Cell.make (-1) in
        let reader () =
          Sim_sync.spin_until (fun () -> Sim.Cell.get flag = 1);
          Sim.Cell.set result (Sim.Cell.get data)
        in
        let r = Sim.spawn reader in
        let w = Sim.spawn writer in
        Sim.join r;
        Sim.join w;
        Sim.Cell.get result)
  in
  Alcotest.(check int) "flag implies data" 99 ok

(* --- Sync primitives on the simulator --- *)

let test_sim_barrier_rounds () =
  let rounds = 5 and parties = 4 in
  let ok =
    Sim.run (fun () ->
        let barrier = Sim_sync.Barrier.create ~parties in
        let counter = Sim.Cell.make 0 in
        let violations = Sim.Cell.make 0 in
        let worker () =
          for r = 1 to rounds do
            Sim.Cell.incr counter;
            Sim_sync.Barrier.await barrier;
            (* After the barrier every party of this round has counted. *)
            if Sim.Cell.get counter < r * parties then Sim.Cell.incr violations;
            Sim_sync.Barrier.await barrier
          done
        in
        let threads = List.init parties (fun _ -> Sim.spawn worker) in
        List.iter Sim.join threads;
        (Sim.Cell.get violations, Sim_sync.Barrier.rounds barrier))
  in
  Alcotest.(check int) "no violations" 0 (fst ok);
  Alcotest.(check int) "rounds counted" (2 * rounds) (snd ok)

let test_sim_spin_until_immediate () =
  Sim.run (fun () -> Sim_sync.spin_until (fun () -> true));
  ()

(* --- Real runtime (true parallelism, small thread counts) --- *)

let test_real_counter () =
  let c = Real.Cell.make 0 in
  let worker () =
    for _ = 1 to 10_000 do
      ignore (Real.Cell.faa c 1)
    done
  in
  let threads = List.init 4 (fun _ -> Real.spawn worker) in
  List.iter Real.join threads;
  Alcotest.(check int) "atomic increments" 40_000 (Real.Cell.get c)

let test_real_barrier () =
  let parties = 4 and rounds = 20 in
  let barrier = Real_sync.Barrier.create ~parties in
  let counter = Real.Cell.make 0 in
  let violations = Real.Cell.make 0 in
  let worker () =
    for r = 1 to rounds do
      Real.Cell.incr counter;
      Real_sync.Barrier.await barrier;
      if Real.Cell.get counter < r * parties then Real.Cell.incr violations;
      Real_sync.Barrier.await barrier
    done
  in
  let threads = List.init parties (fun _ -> Real.spawn worker) in
  List.iter Real.join threads;
  Alcotest.(check int) "no violations" 0 (Real.Cell.get violations)

let test_real_cas () =
  let c = Real.Cell.make 0 in
  let wins = Real.Cell.make 0 in
  let worker () = if Real.Cell.cas c 0 1 then Real.Cell.incr wins in
  let threads = List.init 4 (fun _ -> Real.spawn worker) in
  List.iter Real.join threads;
  Alcotest.(check int) "single winner" 1 (Real.Cell.get wins)

(* --- Real spawn/join contract: pooled worker domains --- *)

(* The domain a spawned body ran on. The plain ref is written by the body
   and read after [join], which must make the body's writes visible. *)
let ran_on () =
  let id = ref (-1) in
  Real.join (Real.spawn (fun () -> id := (Domain.self () :> int)));
  !id

let test_real_join_reraises () =
  Alcotest.check_raises "body's exception" (Failure "boom") (fun () ->
      Real.join (Real.spawn (fun () -> failwith "boom")));
  let ran = ref false in
  Real.join (Real.spawn (fun () -> ran := true));
  Alcotest.(check bool) "next spawn runs" true !ran

let test_real_join_reuses_domain () =
  (* Back-to-back pairs hand the body to the domain the previous body
     just left; one domain per spawn would never repeat an id. A pair
     misses only when the host deschedules the test for longer than the
     pool's idle period, so half the pairs is a safe floor. *)
  let pairs = 10 in
  let prev = ref (ran_on ()) and reused = ref 0 in
  for _ = 1 to pairs do
    let id = ran_on () in
    if id = !prev then incr reused;
    prev := id
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d pairs reused the domain" !reused pairs)
    true (2 * !reused >= pairs)

let test_real_burst_beyond_idle () =
  (* Every body waits at one barrier until all have arrived, so each
     needs a domain of its own at the same time, more than any earlier
     test left idle; one of them spawns and joins a child from inside its
     body, which must get a domain too. *)
  let outer = 6 in
  let barrier = Real_sync.Barrier.create ~parties:(outer + 1) in
  let arrived = Real.Cell.make 0 in
  let arrive () =
    Real_sync.Barrier.await barrier;
    Real.Cell.incr arrived
  in
  let body me () =
    if me = 0 then begin
      let child = Real.spawn arrive in
      arrive ();
      Real.join child
    end
    else arrive ()
  in
  let threads = List.init outer (fun me -> Real.spawn (body me)) in
  List.iter Real.join threads;
  Alcotest.(check int) "every body ran" (outer + 1) (Real.Cell.get arrived)

let test_real_idle_domain_retires () =
  (* An idle domain exits after a few tens of ms, so a body spawned well
     past that runs on a fresh domain: no pooled domain stays alive. *)
  let before = ran_on () in
  Unix.sleepf 0.5;
  Alcotest.(check bool) "fresh domain after the idle period" true
    (ran_on () <> before)

(* --- Property tests --- *)

let prop_sim_counter_always_exact =
  QCheck.Test.make ~count:25 ~name:"sim faa never loses increments"
    QCheck.(pair (int_range 1 8) (int_range 1 300))
    (fun (threads, ops) ->
      Sim.run (fun () ->
          let c = Sim.Cell.make 0 in
          let worker () =
            for _ = 1 to ops do
              ignore (Sim.Cell.faa c 1)
            done
          in
          let ts = List.init threads (fun _ -> Sim.spawn worker) in
          List.iter Sim.join ts;
          Sim.Cell.get c)
      = threads * ops)

let prop_sim_jitter_preserves_counter =
  QCheck.Test.make ~count:25 ~name:"random schedules preserve atomicity"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      Sim.run ~jitter:(Rng.create ~seed) (fun () ->
          let c = Sim.Cell.make 0 in
          (* Read then CAS: a lost race re-reads, so no increment is
             lost however the jitter orders the threads. *)
          let rec bump () =
            let v = Sim.Cell.get c in
            if not (Sim.Cell.cas c v (v + 1)) then bump ()
          in
          let worker () =
            for _ = 1 to 50 do
              bump ()
            done
          in
          let ts = List.init 5 (fun _ -> Sim.spawn worker) in
          List.iter Sim.join ts;
          Sim.Cell.get c)
      = 250)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "returns value" `Quick test_sim_returns_value;
        Alcotest.test_case "counter faa" `Quick test_sim_counter_faa;
        Alcotest.test_case "cas exclusive" `Quick test_sim_cas_exclusive;
        Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "jitter deterministic" `Quick test_sim_jitter_deterministic_given_seed;
        Alcotest.test_case "work advances clock" `Quick test_sim_work_advances_clock;
        Alcotest.test_case "without_cost free" `Quick test_sim_without_cost_is_free;
        Alcotest.test_case "copy charges bandwidth" `Quick test_sim_copy_charges_bandwidth;
        Alcotest.test_case "join propagates clock" `Quick test_sim_join_propagates_clock;
        Alcotest.test_case "join finished thread" `Quick test_sim_join_finished_thread;
        Alcotest.test_case "contended faa serializes" `Quick test_sim_contended_faa_serializes;
        Alcotest.test_case "uncontended cells scale" `Quick test_sim_uncontended_cells_scale;
        Alcotest.test_case "deadlock detected" `Quick test_sim_deadlock_detected;
        Alcotest.test_case "nested run rejected" `Quick test_sim_nested_run_rejected;
        Alcotest.test_case "exception propagates" `Quick test_sim_exception_propagates;
        Alcotest.test_case "many threads" `Quick test_sim_many_threads;
        Alcotest.test_case "visibility order" `Quick test_sim_visibility_order;
      ]
      @ qcheck [ prop_sim_counter_always_exact; prop_sim_jitter_preserves_counter ] );
    ( "sim-sync",
      [
        Alcotest.test_case "barrier rounds" `Quick test_sim_barrier_rounds;
        Alcotest.test_case "spin_until immediate" `Quick test_sim_spin_until_immediate;
      ] );
    ( "real",
      [
        Alcotest.test_case "counter" `Quick test_real_counter;
        Alcotest.test_case "barrier" `Quick test_real_barrier;
        Alcotest.test_case "cas" `Quick test_real_cas;
        Alcotest.test_case "join re-raises" `Quick test_real_join_reraises;
        Alcotest.test_case "join reuses domain" `Quick test_real_join_reuses_domain;
        Alcotest.test_case "burst beyond idle set" `Quick test_real_burst_beyond_idle;
        Alcotest.test_case "idle domain retires" `Quick test_real_idle_domain_retires;
      ] );
  ]

let () = Alcotest.run "bohm_runtime" suite

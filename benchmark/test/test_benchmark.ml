(* The benchmark's own checks: its order statistics, the per-layer fold,
   and that BENCHMARK.json and the code declare and emit the same
   metrics. *)

open Bohm_benchmark
module Timeline = Bohm_obs.Timeline

let feq = Alcotest.float 1e-9

let test_percentile_rule () =
  let check n want =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) want
      (Summary.reportable_percentile n)
  in
  check 160 (Some 90.);
  check 100 (Some 90.);
  check 99 (Some 50.);
  check 20 (Some 50.);
  check 19 None;
  check 1000 (Some 99.);
  check 10_000 (Some 99.9);
  Alcotest.(check int) "16 beyond p90 of 160" 16 (Summary.beyond 160 90.);
  let xs = List.init 160 (fun i -> float_of_int (160 - i)) in
  Alcotest.check feq "p90 of 1..160" 144. (Summary.percentile xs 90.);
  Alcotest.check feq "p50 of 1..160" 80. (Summary.percentile xs 50.)

(* Expected values from Python's statistics.median / quantiles(n=4). *)
let test_median_quartiles () =
  Alcotest.check feq "odd median" 2. (Summary.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even median" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ]);
  let q xs (a, b, c) =
    let a', b', c' = Summary.quartiles xs in
    Alcotest.check feq "q1" a a';
    Alcotest.check feq "q2" b b';
    Alcotest.check feq "q3" c c'
  in
  q [ 1.; 2.; 3.; 4. ] (1.25, 2.5, 3.75);
  q (List.init 10 (fun i -> float_of_int (10 - i))) (2.75, 5.5, 8.25);
  q [ 5.; 1.; 9. ] (1., 5., 9.);
  q [ 2.; 1. ] (0.75, 1.5, 2.25);
  Alcotest.check feq "spread" ((8.25 -. 2.75) /. 5.5)
    (Summary.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let record ~batch ~start ~finish ~stages ~dep_stall =
  {
    Timeline.tl_batch = batch;
    tl_start = start;
    tl_finish = finish;
    tl_stages = stages;
    tl_committed = 2;
    tl_steals = 0;
    tl_wakeups = 0;
    tl_retry_scans = 0;
    tl_recycled = 0;
    tl_dep_stall = dep_stall;
    tl_slab_occ = 0;
    tl_cc_imbalance = 1.;
    tl_votes = [];
  }

let test_timeline_fold () =
  let records =
    [
      record ~batch:0 ~start:0 ~finish:200
        ~stages:[ ("cc", 100); ("gc", 40); ("exec", 50) ]
        ~dep_stall:10;
      record ~batch:1 ~start:200 ~finish:600
        ~stages:[ ("preprocess", 8); ("cc", 300); ("gc", 60); ("exec", 70) ]
        ~dep_stall:20;
    ]
  in
  let got = Layers.sim_timeline records ~txns:4 in
  List.iter
    (fun (name, want) ->
      Alcotest.check feq name want
        (match List.assoc_opt name got with
        | Some v -> v
        | None -> Alcotest.failf "%s missing" name))
    [
      ("engine.cc_cyc_per_txn", 100.);
      ("engine.gc_cyc_per_txn", 25.);
      ("engine.exec_cyc_per_txn", 30.);
      ("engine.preprocess_cyc_per_txn", 2.);
      ("engine.vote_cyc_per_txn", 0.);
      ("engine.blamed_stall_cyc_per_txn", 7.5);
      ("engine.makespan_cyc_p50", 300.);
      ("engine.makespan_cyc_max", 400.);
    ];
  Alcotest.check feq "ratio dev" 2.
    (Layers.max_ratio_dev [ (10., 10.); (20., 10.); (40., 10.) ])

(* ------------------------------------------------------------------ *)
(* A small JSON reader, enough for BENCHMARK.json. *)

type json = Str of string | Num of float | Arr of json list | Obj of (string * json) list

let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '"' -> Str (str ())
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            if peek () = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if peek () = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | _ ->
        let start = !pos in
        while !pos < String.length s && String.contains "+-.eE0123456789" (peek ()) do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let field k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with Some v -> v | None -> Alcotest.failf "no key %s" k)
  | _ -> Alcotest.failf "not an object at %s" k

let str = function Str s -> s | _ -> Alcotest.fail "expected a string"
let arr = function Arr l -> l | _ -> Alcotest.fail "expected an array"

let declared =
  lazy (parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all))

let valid_name s =
  String.length s <= 64
  && String.length s > 0
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_declarations () =
  let doc = Lazy.force declared in
  let family key (schema : Schema.metric list) =
    let entries = arr (field key doc) in
    Alcotest.(check (list string))
      (key ^ " names")
      (List.map (fun (m : Schema.metric) -> m.name) schema)
      (List.map (fun e -> str (field "name" e)) entries);
    List.iter2
      (fun (m : Schema.metric) e ->
        Alcotest.(check bool) (m.name ^ " valid") true (valid_name m.name);
        Alcotest.(check string) (m.name ^ " unit") m.unit (str (field "unit" e));
        Alcotest.(check string)
          (m.name ^ " better") (Schema.better_name m.better)
          (str (field "better" e)))
      schema entries
  in
  family "end_to_end" Schema.end_to_end;
  family "per_layer" Schema.per_layer;
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (List.map (fun e -> str (field "name" e)) (arr (field "workloads" doc)))

(* Every declared metric comes out of the phases for every workload, run
   here at a toy size with every correctness check on. *)
let tiny =
  {
    Phases.rows = 1000;
    sim_txns = 100;
    real_txns = 100;
    batch_calls = 2;
    micro_ops = 500;
    batch = Some 25;
  }

let test_emitted (w : Workloads.t) () =
  let result =
    List.fold_left
      (fun acc phase ->
        Phases.merge acc
          (Phases.run phase w tiny ~seed:3 ~deadline:0. ~e2e:true ~layers:true))
      Phases.empty
      [ Phases.Sim_runs; Real_runs; Batch_latency; Micro_ops ]
  in
  Alcotest.(check (list string)) "no errors" [] result.errors;
  Alcotest.(check int) "no failures" 0 result.failed;
  let _, e2e_errs =
    Phases.select Schema.end_to_end (Phases.end_to_end result.samples)
  in
  let _, layer_errs = Phases.select Schema.per_layer result.layer in
  Alcotest.(check (list string)) "all metrics" [] (e2e_errs @ layer_errs)

let () =
  Alcotest.run "benchmark"
    [
      ( "summary",
        [
          Alcotest.test_case "reportable percentile" `Quick test_percentile_rule;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
        ] );
      ("layers", [ Alcotest.test_case "timeline fold" `Quick test_timeline_fold ]);
      ( "declarations",
        Alcotest.test_case "BENCHMARK.json matches the schema" `Quick
          test_declarations
        :: List.map
             (fun (w : Workloads.t) ->
               Alcotest.test_case ("emitted " ^ w.name) `Quick (test_emitted w))
             Workloads.all );
    ]

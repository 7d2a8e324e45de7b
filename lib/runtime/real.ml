module Cell = struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let get = Atomic.get
  let set = Atomic.set
  let cas = Atomic.compare_and_set
  let faa = Atomic.fetch_and_add
  let incr = Atomic.incr

  (* Tracing is simulator-only; classification has nothing to hook. *)
  let mark_sync _ = ()
end

(* Threads are pooled worker domains. Creating a domain and waiting for
   its teardown costs about a millisecond, which a single-batch [run]
   would otherwise pay for every pipeline thread, so a domain whose body
   has returned parks and takes the next [spawn]'s body instead: first
   spinning for [spin_s], then sleeping in [poll_s] steps. It exits once
   it has been idle for [linger_s], so no domain outlives a burst of
   runs. Idle domains must exit: OCaml 5.1 sums the heap maxima of every
   live domain into [Gc.quick_stat]'s [top_heap_words]. *)
let spin_s = 50e-6
let poll_s = 100e-6
let linger_s = 0.05

type outcome = Running | Returned | Raised of exn * Printexc.raw_backtrace
type thread = outcome Atomic.t
type job = { body : unit -> unit; thread : thread }

(* An idle worker's mailbox: [spawn] posts the next job into it. *)
type worker = job option Atomic.t

(* [lock] guards [idle] and every mailbox post, so a worker that finds
   its mailbox empty under [lock] may retire without racing a [spawn].
   A worker parks and publishes its job's outcome in one critical
   section, so a [spawn] made right after a [join] finds it idle;
   [finished] is signalled there. *)
let lock = Mutex.create ()
let finished = Condition.create ()
let idle : worker list ref = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The next job for [w], or [None] once [w] has retired. *)
let await (w : worker) =
  let start = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get w with
    | Some _ as job -> job
    | None ->
        (* A clock step backwards retires the worker early, never late. *)
        let idle_s = Unix.gettimeofday () -. start in
        if idle_s < 0. || idle_s >= linger_s then
          let retired =
            locked (fun () ->
                let empty = Option.is_none (Atomic.get w) in
                if empty then idle := List.filter (fun v -> v != w) !idle;
                empty)
          in
          if retired then None else wait ()
        else if idle_s < spin_s then (Domain.cpu_relax (); wait ())
        else (Unix.sleepf poll_s; wait ())
  in
  let job = wait () in
  Atomic.set w None;
  job

(* Run the jobs posted to [w] until it retires. A body is reachable only
   from the mailbox until [await] takes it, so a parked domain pins no
   finished run's data. *)
let rec serve w =
  match await w with
  | None -> ()
  | Some { body; thread } ->
      let outcome =
        match body () with
        | () -> Returned
        | exception e -> Raised (e, Printexc.get_raw_backtrace ())
      in
      locked (fun () ->
          idle := w :: !idle;
          Atomic.set thread outcome;
          Condition.broadcast finished);
      serve w

let spawn body =
  let thread = Atomic.make Running in
  let job = Some { body; thread } in
  let posted =
    locked (fun () ->
        match !idle with
        | w :: rest ->
            idle := rest;
            Atomic.set w job;
            true
        | [] -> false)
  in
  if not posted then begin
    let w = Atomic.make job in
    ignore (Domain.spawn (fun () -> serve w))
  end;
  thread

let running t = match Atomic.get t with Running -> true | _ -> false

let join t =
  if running t then
    locked (fun () ->
        while running t do
          Condition.wait finished lock
        done);
  match Atomic.get t with
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Returned | Running -> ()

(* [Sys.opaque_identity] defeats constant folding so the loop really spins;
   one iteration is on the order of a cycle, which is all the precision the
   callers need. *)
let work n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity 0)
  done

let copy ~bytes = work (bytes / 8)
let relax () = Domain.cpu_relax ()
let now () = Unix.gettimeofday ()
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let without_cost f = f ()

exception Deadlock of string

type thread_state = {
  id : int;
  mutable clock : int;
  mutable finished : bool;
  mutable joiners : waiter list;
}

and waiter = {
  waiter_ts : thread_state;
  waiter_k : (unit, unit) Effect.Deep.continuation;
}

type thread = thread_state

type sched = {
  runnable : (thread_state * (unit -> unit)) Bohm_util.Heap.t;
  mutable current : thread_state;
  mutable live : int;
  mutable next_id : int;
  mutable charging : bool;
  mutable step_count : int;
  mutable empty_relax_streak : int;
  jitter : Bohm_util.Rng.t option;
}

let state : sched option ref = ref None
let last_makespan = ref 0.
let last_steps = ref 0

(* Priorities are clocks scaled by 256 so that the low byte can carry
   scheduling jitter without perturbing the time order. *)
let priority sched clock =
  let low =
    match sched.jitter with None -> 0 | Some rng -> Bohm_util.Rng.int rng 256
  in
  (clock * 256) + low

type _ Effect.t += Yield : unit Effect.t | Join_wait : thread_state -> unit Effect.t

let enqueue sched ts thunk =
  Bohm_util.Heap.push sched.runnable ~priority:(priority sched ts.clock) (ts, thunk)

(* Yield only when another runnable thread is logically earlier; while the
   current thread holds the minimum clock its operations cannot be affected
   by anyone else, so it may keep running (conservative PDES fast path). *)
let maybe_yield sched ts =
  match Bohm_util.Heap.peek sched.runnable with
  | Some (p, _) when p < ts.clock * 256 -> Effect.perform Yield
  | Some _ | None -> ()

let current sched = sched.current

let get_sched () =
  match !state with
  | Some s -> s
  | None -> invalid_arg "Sim: operation outside Sim.run"

module Cell = struct
  type 'a t = {
    mutable v : 'a;
    mutable owner : int; (* id of last writer; -1 = fresh *)
    mutable shared : bool; (* some non-owner has read since last write *)
    mutable avail : int; (* virtual time at which the line is free *)
    mutable last_write : int; (* completion time of the last write *)
    cid : int; (* unique id, for the optional access tracer *)
    mutable sync : bool; (* synchronization cell (see Cell.mark_sync) *)
  }

  (* Not a Cell and uncharged: cells are created on one thread. *)
  let cell_counter = ref 0

  let make v =
    incr cell_counter;
    {
      v;
      owner = -1;
      shared = false;
      avail = 0;
      last_write = min_int;
      cid = !cell_counter;
      sync = false;
    }

  let mark_sync c = c.sync <- true

  (* Report an access to the installed tracer, if any. Never touches the
     virtual clock: traced runs charge exactly what untraced runs do.
     Accesses outside a simulation (setup code) are not reported — there
     is no thread to attribute them to, and nothing runs concurrently. *)
  let trace c kind =
    match !Trace.sink with
    | None -> ()
    | Some sink -> (
        match !state with
        | None -> ()
        | Some s ->
            let ts = current s in
            sink.Trace.on_access ~cell:c.cid ~sync:c.sync ~thread:ts.id
              ~clock:ts.clock ~kind)

  (* A line written recently by some core is "hot": accesses pay a
     cache-to-cache transfer. A long-untouched line is merely a DRAM
     miss. *)
  let hot c now = now - c.last_write < !Costs.recency_window

  let get c =
    match !state with
    | None -> c.v
    | Some s ->
        let ts = current s in
        if s.charging then begin
          let cost =
            if c.owner = ts.id || c.shared then !Costs.cache_hit
            else begin
              let cost =
                if hot c ts.clock then !Costs.coherence_read else !Costs.dram_read
              in
              c.shared <- true;
              cost
            end
          in
          let start = if ts.clock < c.avail then c.avail else ts.clock in
          ts.clock <- start + cost;
          maybe_yield s ts
        end;
        trace c Trace.Read;
        c.v

  (* Charge for exclusive ownership of the line and reserve it until the
     operation's completion time, so concurrent writers serialize. The
     mutation itself happens after [maybe_yield], i.e. at the thread's final
     clock, which the reservation guarantees is untouched by others. *)
  let charge_exclusive s ts c base_cost =
    let transfer =
      if c.owner = ts.id && not c.shared then 0
      else if c.owner = -1 then 0 (* freshly allocated: no one holds it *)
      else if hot c ts.clock then !Costs.line_transfer
      else !Costs.dram_write
    in
    let start = if ts.clock < c.avail then c.avail else ts.clock in
    ts.clock <- start + base_cost + transfer;
    c.avail <- ts.clock;
    c.owner <- ts.id;
    c.shared <- false;
    c.last_write <- ts.clock;
    maybe_yield s ts

  let set c v =
    match !state with
    | None -> c.v <- v
    | Some s ->
        let ts = current s in
        if s.charging then charge_exclusive s ts c !Costs.store_owned;
        c.v <- v;
        trace c Trace.Write

  (* Atomic RMWs are synchronization by nature (locks, claims, counters):
     the first one permanently promotes the cell to the sync class. *)
  let cas c expected desired =
    match !state with
    | None ->
        if c.v == expected then begin
          c.v <- desired;
          true
        end
        else false
    | Some s ->
        let ts = current s in
        if s.charging then charge_exclusive s ts c !Costs.atomic_rmw;
        c.sync <- true;
        let won =
          if c.v == expected then begin
            c.v <- desired;
            true
          end
          else false
        in
        trace c Trace.Rmw;
        won

  let faa c n =
    match !state with
    | None ->
        let old = c.v in
        c.v <- old + n;
        old
    | Some s ->
        let ts = current s in
        if s.charging then charge_exclusive s ts c !Costs.atomic_rmw;
        c.sync <- true;
        let old = c.v in
        c.v <- old + n;
        trace c Trace.Rmw;
        old

  let incr c = ignore (faa c 1)
end

let work n =
  match !state with
  | None -> ()
  | Some s ->
      if s.charging then begin
        let ts = current s in
        ts.clock <- ts.clock + n;
        maybe_yield s ts
      end

let copy ~bytes =
  let per = !Costs.bytes_per_cycle in
  work (if per <= 0 then bytes else bytes / per)

let relax () =
  match !state with
  | None -> ()
  | Some s ->
      let ts = current s in
      if Bohm_util.Heap.is_empty s.runnable then begin
        s.empty_relax_streak <- s.empty_relax_streak + 1;
        if s.empty_relax_streak > 100_000 then
          raise
            (Deadlock
               (Printf.sprintf
                  "thread %d spins but no other thread is runnable" ts.id))
      end
      else s.empty_relax_streak <- 0;
      if s.charging then ts.clock <- ts.clock + !Costs.relax_base;
      maybe_yield s ts

let now () =
  match !state with
  | None -> !last_makespan
  | Some s -> float_of_int (current s).clock /. Costs.cycles_per_second

(* Uncharged, yield-free clock sample for the observability layer: the
   thread's virtual clock in cycles. Outside a simulation, the last
   makespan (so post-run exports see a consistent end-of-run stamp). *)
let now_ns () =
  match !state with
  | None -> int_of_float (!last_makespan *. Costs.cycles_per_second)
  | Some s -> (current s).clock

let steps () = match !state with None -> !last_steps | Some s -> s.step_count

let without_cost f =
  let s = get_sched () in
  let saved = s.charging in
  s.charging <- false;
  Fun.protect ~finally:(fun () -> s.charging <- saved) f

let trace_join ~joiner ~joined =
  match !Trace.sink with
  | None -> ()
  | Some sink -> sink.Trace.on_join ~joiner ~joined

let finish sched ts =
  ts.finished <- true;
  sched.live <- sched.live - 1;
  let wake { waiter_ts; waiter_k } =
    if waiter_ts.clock < ts.clock then waiter_ts.clock <- ts.clock;
    trace_join ~joiner:waiter_ts.id ~joined:ts.id;
    enqueue sched waiter_ts (fun () -> Effect.Deep.continue waiter_k ())
  in
  List.iter wake ts.joiners;
  ts.joiners <- []

let run_thread sched ts body =
  Effect.Deep.match_with
    (fun () ->
      body ();
      finish sched ts)
    ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  enqueue sched ts (fun () -> Effect.Deep.continue k ()))
          | Join_wait target ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if target.finished then begin
                    if ts.clock < target.clock then ts.clock <- target.clock;
                    trace_join ~joiner:ts.id ~joined:target.id;
                    enqueue sched ts (fun () -> Effect.Deep.continue k ())
                  end
                  else
                    target.joiners <-
                      { waiter_ts = ts; waiter_k = k } :: target.joiners)
          | _ -> None);
    }

let spawn body =
  let s = get_sched () in
  let parent = current s in
  if s.charging then parent.clock <- parent.clock + !Costs.spawn_cost;
  let ts =
    { id = s.next_id; clock = parent.clock; finished = false; joiners = [] }
  in
  s.next_id <- s.next_id + 1;
  s.live <- s.live + 1;
  (match !Trace.sink with
  | None -> ()
  | Some sink -> sink.Trace.on_spawn ~parent:parent.id ~child:ts.id);
  enqueue s ts (fun () -> run_thread s ts body);
  ts

let join ts =
  let s = get_sched () in
  let me = current s in
  if ts.finished then begin
    if me.clock < ts.clock then me.clock <- ts.clock;
    trace_join ~joiner:me.id ~joined:ts.id
  end
  else Effect.perform (Join_wait ts)

let run ?jitter body =
  if !state <> None then invalid_arg "Sim.run: nested simulations not supported";
  let main = { id = 0; clock = 0; finished = false; joiners = [] } in
  let sched =
    {
      runnable = Bohm_util.Heap.create ();
      current = main;
      live = 1;
      next_id = 1;
      charging = true;
      step_count = 0;
      empty_relax_streak = 0;
      jitter;
    }
  in
  state := Some sched;
  let result = ref None in
  enqueue sched main (fun () -> run_thread sched main (fun () -> result := Some (body ())));
  let finalize () =
    last_makespan := float_of_int sched.current.clock /. Costs.cycles_per_second;
    last_steps := sched.step_count;
    state := None
  in
  (try
     let continue_loop = ref true in
     while !continue_loop do
       match Bohm_util.Heap.pop sched.runnable with
       | None -> continue_loop := false
       | Some (_, (ts, thunk)) ->
           sched.step_count <- sched.step_count + 1;
           sched.current <- ts;
           thunk ()
     done
   with e ->
     finalize ();
     raise e);
  let live = sched.live in
  finalize ();
  if live > 0 then
    raise (Deadlock (Printf.sprintf "%d thread(s) blocked forever" live));
  match !result with
  | Some v -> v
  | None -> raise (Deadlock "main thread never completed")

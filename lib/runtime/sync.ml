module Make (R : Runtime_intf.S) = struct
  module Backoff = struct
    type t = { mutable cur : int }

    let cap = 256
    let create () = { cur = 1 }
    let reset t = t.cur <- 1

    let once t =
      for _ = 1 to t.cur do
        R.relax ()
      done;
      if t.cur < cap then t.cur <- t.cur * 2
  end

  let spin_until cond =
    let b = Backoff.create () in
    while not (cond ()) do
      Backoff.once b
    done

  module Barrier = struct
    type t = {
      parties : int;
      arrived : int R.Cell.t;
      sense : int R.Cell.t;
      completed : int R.Cell.t;
    }

    let create ~parties =
      if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
      let sync v =
        let c = R.Cell.make v in
        R.Cell.mark_sync c;
        c
      in
      (* Synchronization cells by definition: the tracer derives the
         all-before-await happens-before all-after-await edges from the
         arrival RMWs and the sense publish. *)
      { parties; arrived = sync 0; sense = sync 0; completed = sync 0 }

    let await t =
      let my_sense = R.Cell.get t.sense in
      let position = R.Cell.faa t.arrived 1 in
      if position = t.parties - 1 then begin
        (* Last arrival: reset the counter, then release everyone. *)
        R.Cell.set t.arrived 0;
        R.Cell.incr t.completed;
        R.Cell.set t.sense (my_sense + 1)
      end
      else spin_until (fun () -> R.Cell.get t.sense <> my_sense)

    let rounds t = R.Cell.get t.completed
  end

  (* Monotonic published counter: the engines' pipeline-stage handshake
     (BOHM's [pre_done]/[cc_done] batch watermarks) and, one per shard,
     its cross-shard vote board. [publish]/[await]
     compile to exactly the Cell.set / spin_until the engines used to
     write by hand — identical cost — while the sync marking records the
     release/acquire edge for the race tracer. *)
  module Watermark = struct
    type t = int R.Cell.t

    let create v =
      let c = R.Cell.make v in
      R.Cell.mark_sync c;
      c

    let publish c v = R.Cell.set c v
    let await c ~at_least = spin_until (fun () -> R.Cell.get c >= at_least)
    let get = R.Cell.get
  end

  (* Treiber-style multi-producer single-consumer queue of ints (the BOHM
     execution layer's ready queues): producers cons onto the head with a
     CAS; the consumer swaps the whole list out with one CAS and replays
     it in push order. The cell is a synchronization location by
     construction (every access is a get feeding a CAS), and the empty
     check is a single read, so an idle consumer polls at cache-hit
     cost. *)
  module Mpsc = struct
    type t = int list R.Cell.t

    let create () =
      let c = R.Cell.make [] in
      R.Cell.mark_sync c;
      c

    let rec push t v =
      let cur = R.Cell.get t in
      if not (R.Cell.cas t cur (v :: cur)) then push t v

    let rec drain t =
      match R.Cell.get t with
      | [] -> []
      | cur -> if R.Cell.cas t cur [] then List.rev cur else drain t
  end
end

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)

  type mode = Read | Write

  (* Lock word: -1 = writer held, 0 = free, n > 0 = n readers. *)
  type t = int R.Cell.t Store.t

  (* Lock words are synchronization cells: the acquire CAS/FAA and the
     release store carry the ordering that makes the *value* cells —
     which stay unmarked — race-free. The tracer thereby checks the lock
     discipline instead of assuming it. *)
  let create ~tables =
    Store.create_hash ~tables (fun _ ->
        let c = R.Cell.make 0 in
        R.Cell.mark_sync c;
        c)

  let try_lock cell = function
    | Read ->
        let s = R.Cell.get cell in
        s >= 0 && R.Cell.cas cell s (s + 1)
    | Write ->
        let s = R.Cell.get cell in
        s = 0 && R.Cell.cas cell 0 (-1)

  let try_acquire t k mode = try_lock (Store.get t k) mode

  let acquire t k mode =
    let cell = Store.get t k in
    if not (try_lock cell mode) then
      Sync.spin_until (fun () -> try_lock cell mode)

  let release t k mode =
    let cell = Store.get t k in
    match mode with
    | Read -> ignore (R.Cell.faa cell (-1))
    | Write -> R.Cell.set cell 0

  let holders t k = R.Cell.get (Store.get t k)
end

type t = {
  txns : int;
  committed : int;
  logic_aborts : int;
  cc_aborts : int;
  elapsed : float;
  extra : (string * float) list;
  latency : (string * Bohm_util.Histogram.t) list;
}

(* Extras arrive from [Bohm_obs.Metrics.to_extra], the sole producer of
   this surface; normalize so equal runs print and serialize identically
   regardless of how the caller assembled the list: sorted by key,
   duplicate keys collapsed to the last occurrence. *)
let normalize_extra extra =
  let deduped =
    List.fold_left
      (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
      [] extra
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) deduped

let make ~txns ~committed ~logic_aborts ~cc_aborts ~elapsed ?(extra = [])
    ?(latency = []) () =
  {
    txns;
    committed;
    logic_aborts;
    cc_aborts;
    elapsed;
    extra = normalize_extra extra;
    latency;
  }

let throughput t = if t.elapsed <= 0. then 0. else float_of_int t.txns /. t.elapsed

let abort_rate t =
  let attempts = t.txns + t.cc_aborts in
  if attempts = 0 then 0. else float_of_int t.cc_aborts /. float_of_int attempts

let extra t name = List.assoc_opt name t.extra
let latency t phase = List.assoc_opt phase t.latency

let pp fmt t =
  Format.fprintf fmt
    "%d txns (%d committed, %d logic aborts, %d cc aborts) in %.4fs = %.0f txns/s"
    t.txns t.committed t.logic_aborts t.cc_aborts t.elapsed (throughput t)

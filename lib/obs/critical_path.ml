(* Critical-path analysis over a recorded run: replay every track's spans
   and waiter/wakeup instants, reconstruct each batch's stage windows, and
   answer two questions the aggregate percentiles cannot:

   - the binding chain: per batch, in pipeline order, each stage's
     last-finishing thread — exactly the thread the downstream watermark
     ([pre_done]/[cc_done]/vote board) waited on — and among them the
     *binding* stage, the one whose wall window dominates the batch's
     barrier-to-barrier makespan;

   - the stall-blame ledger: the engines emit one [dep_stall:<writer>:<key>]
     instant per transaction that ever blocked, carrying the completing
     attempt's dependency-stall duration; summed per (writer txn, key)
     pair this attributes anonymous [dep_stall] cycles to the specific
     blocking producer, DGCC-style. *)

type link = {
  l_stage : string;
  l_track : string; (* last-finishing thread of the stage *)
  l_start : int; (* stage window: min begin ... *)
  l_finish : int; (* ... max end, across tracks *)
}

type batch_path = {
  bp_batch : int;
  bp_chain : link list; (* pipeline order *)
  bp_binding : link; (* widest window; ties go upstream *)
}

type blame = {
  bl_writer : int; (* sequence number of the blocking writer *)
  bl_key : string;
  bl_cycles : int;
  bl_count : int; (* transactions that blamed this pair *)
}

type t = {
  cp_batches : batch_path list;
  cp_binding : (string * int) list; (* stage -> batches it binds, desc *)
  cp_blame : blame list; (* desc by blamed cycles *)
}

let window l = l.l_finish - l.l_start

let analyze recorder =
  let ledger : (int * string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let on_instant ~name ~batch:_ ~value ~ts:_ =
    match Timeline.parse_blame name with
    | None -> ()
    | Some pair ->
        let cyc, cnt =
          match Hashtbl.find_opt ledger pair with
          | Some (c, n) -> (c, n)
          | None -> (0, 0)
        in
        Hashtbl.replace ledger pair (cyc + value, cnt + 1)
  in
  let stages =
    Timeline.replay recorder
      ~on_span:(fun ~track:_ ~stage:_ ~batch:_ _ _ -> ())
      ~on_instant
  in
  let batch_ids =
    Hashtbl.fold (fun (b, _) _ acc -> if List.mem b acc then acc else b :: acc)
      stages []
    |> List.sort compare
  in
  let batches =
    List.map
      (fun b ->
        let chain =
          Hashtbl.fold
            (fun (b', stage) (w : Timeline.window) acc ->
              if b' = b then
                {
                  l_stage = stage;
                  l_track = w.w_track;
                  l_start = w.w_start;
                  l_finish = w.w_finish;
                }
                :: acc
              else acc)
            stages []
          |> List.sort (fun x y -> Timeline.compare_stage x.l_stage y.l_stage)
        in
        let binding =
          match chain with
          | [] -> invalid_arg "Critical_path.analyze: empty batch"
          | hd :: tl ->
              (* Widest window binds; an exact tie goes to the upstream
                 stage (so [cc] beats its nested [gc]). *)
              List.fold_left
                (fun best l -> if window l > window best then l else best)
                hd tl
        in
        { bp_batch = b; bp_chain = chain; bp_binding = binding })
      batch_ids
  in
  let binding =
    let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun bp ->
        let s = bp.bp_binding.l_stage in
        Hashtbl.replace counts s
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
      batches;
    Hashtbl.fold (fun s n acc -> (s, n) :: acc) counts []
    |> List.sort (fun (s1, n1) (s2, n2) ->
           let c = compare n2 n1 in
           if c <> 0 then c else String.compare s1 s2)
  in
  let blame =
    Hashtbl.fold
      (fun (writer, key) (cyc, cnt) acc ->
        { bl_writer = writer; bl_key = key; bl_cycles = cyc; bl_count = cnt }
        :: acc)
      ledger []
    |> List.sort (fun a b ->
           let c = compare b.bl_cycles a.bl_cycles in
           if c <> 0 then c
           else
             let c = compare a.bl_writer b.bl_writer in
             if c <> 0 then c else String.compare a.bl_key b.bl_key)
  in
  { cp_batches = batches; cp_binding = binding; cp_blame = blame }

let binding_share t stage =
  let n = List.length t.cp_batches in
  if n = 0 then 0.
  else
    float_of_int (Option.value ~default:0 (List.assoc_opt stage t.cp_binding))
    /. float_of_int n

let pp ?(top = 5) fmt t =
  let n_batches = List.length t.cp_batches in
  Format.fprintf fmt "batches analyzed: %d@." n_batches;
  Format.fprintf fmt "binding stages (batches dominated):@.";
  List.iteri
    (fun i (stage, n) ->
      if i < top then
        Format.fprintf fmt "  %-12s %6d  (%.0f%%)@." stage n
          (100. *. float_of_int n /. float_of_int (max 1 n_batches)))
    t.cp_binding;
  if t.cp_blame = [] then Format.fprintf fmt "no dependency stalls blamed@."
  else begin
    Format.fprintf fmt "hottest blocking (writer, key) pairs:@.";
    List.iteri
      (fun i bl ->
        if i < top then
          Format.fprintf fmt "  writer txn %-8d key %-12s %10d cycles  (%d blocked)@."
            bl.bl_writer bl.bl_key bl.bl_cycles bl.bl_count)
      t.cp_blame
  end

module Key = Bohm_txn.Key

type checker = Footprint | Chain | Race | Static

type kind =
  | Undeclared_read
  | Undeclared_write
  | Late_write
  | Chain_out_of_order
  | Chain_unfilled
  | Chain_end_mismatch
  | Chain_dangling_lock
  | Chain_dangling_waiter
  | Chain_cross_slab
  | Data_race
  | Static_undeclared_read
  | Static_undeclared_write

let checker_of_kind = function
  | Undeclared_read | Undeclared_write | Late_write -> Footprint
  | Chain_out_of_order | Chain_unfilled | Chain_end_mismatch
  | Chain_dangling_lock | Chain_dangling_waiter | Chain_cross_slab ->
      Chain
  | Data_race -> Race
  | Static_undeclared_read | Static_undeclared_write -> Static

let checker_name = function
  | Footprint -> "footprint"
  | Chain -> "chain"
  | Race -> "race"
  | Static -> "static"

let kind_name = function
  | Undeclared_read -> "undeclared-read"
  | Undeclared_write -> "undeclared-write"
  | Late_write -> "late-write"
  | Chain_out_of_order -> "out-of-order"
  | Chain_unfilled -> "unfilled-placeholder"
  | Chain_end_mismatch -> "end-ts-mismatch"
  | Chain_dangling_lock -> "dangling-lock"
  | Chain_dangling_waiter -> "dangling-waiter"
  | Chain_cross_slab -> "cross-slab-prev"
  | Data_race -> "data-race"
  | Static_undeclared_read -> "may-read-undeclared"
  | Static_undeclared_write -> "may-write-undeclared"

type diag = {
  kind : kind;
  txn : int option;
  key : Key.t option;
  detail : string;
}

(* Entries are stored newest-first and rendered oldest-first. The [seen]
   table dedups: engines re-run transaction logic on conflicts and
   blocks, so the same violation can be observed many times per run —
   each duplicate bumps the first entry's occurrence count instead of
   flooding the report. *)
type entry = { d : diag; mutable hits : int }

type t = {
  mutable entries : entry list;
  mutable count : int;
  seen : (string, entry) Hashtbl.t;
}

let create () = { entries = []; count = 0; seen = Hashtbl.create 64 }

let diag_to_string d =
  let b = Buffer.create 64 in
  Buffer.add_string b (checker_name (checker_of_kind d.kind));
  Buffer.add_string b ": ";
  Buffer.add_string b (kind_name d.kind);
  (match d.txn with
  | Some id -> Buffer.add_string b (Printf.sprintf " txn %d" id)
  | None -> ());
  (match d.key with
  | Some k -> Buffer.add_string b (" key " ^ Key.to_string k)
  | None -> ());
  if d.detail <> "" then Buffer.add_string b (" (" ^ d.detail ^ ")");
  Buffer.contents b

let add t ?txn ?key kind detail =
  let d = { kind; txn; key; detail } in
  let line = diag_to_string d in
  match Hashtbl.find_opt t.seen line with
  | Some e -> e.hits <- e.hits + 1
  | None ->
      let e = { d; hits = 1 } in
      Hashtbl.add t.seen line e;
      t.entries <- e :: t.entries;
      t.count <- t.count + 1

let entries t = List.rev_map (fun e -> (e.d, e.hits)) t.entries
let diags t = List.rev_map (fun e -> e.d) t.entries
let count t = t.count
let is_clean t = t.count = 0

let occurrences t =
  List.fold_left (fun acc e -> acc + e.hits) 0 t.entries

let count_checker t c =
  List.length
    (List.filter (fun e -> checker_of_kind e.d.kind = c) t.entries)

let count_kind t k =
  List.length (List.filter (fun e -> e.d.kind = k) t.entries)

let pp fmt t =
  if is_clean t then Format.fprintf fmt "sanitizer: clean"
  else begin
    Format.fprintf fmt
      "sanitizer: %d diagnostic%s (footprint=%d chain=%d race=%d static=%d)"
      t.count
      (if t.count = 1 then "" else "s")
      (count_checker t Footprint) (count_checker t Chain)
      (count_checker t Race) (count_checker t Static);
    List.iter
      (fun (d, hits) ->
        if hits = 1 then Format.fprintf fmt "@\n  %s" (diag_to_string d)
        else Format.fprintf fmt "@\n  %s [x%d]" (diag_to_string d) hits)
      (entries t)
  end

let to_string t = Format.asprintf "%a" pp t

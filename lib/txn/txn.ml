type outcome = Commit | Abort

type ctx = {
  read : Key.t -> Value.t;
  write : Key.t -> Value.t -> unit;
  spin : int -> unit;
}

type t = {
  id : int;
  read_set : Key.t array;
  write_set : Key.t array;
  logic : ctx -> outcome;
}

let normalize keys =
  let a = Array.of_list keys in
  Array.sort Key.compare a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    (* Compact duplicates in place. *)
    let w = ref 1 in
    for r = 1 to n - 1 do
      if not (Key.equal a.(r) a.(!w - 1)) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

let make ~id ~read_set ~write_set logic =
  { id; read_set = normalize read_set; write_set = normalize write_set; logic }

let with_logic t logic = { t with logic }

let mem sorted k =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = Key.compare k sorted.(mid) in
      if c = 0 then true else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length sorted)

let reads t k = mem t.read_set k
let writes t k = mem t.write_set k

let footprint t =
  (* Merge of two sorted duplicate-free arrays. *)
  let a = t.read_set and b = t.write_set in
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) (Key.make ~table:0 ~row:0) in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < la && !j < lb do
    let c = Key.compare a.(!i) b.(!j) in
    if c < 0 then begin
      out.(!w) <- a.(!i);
      incr i
    end
    else if c > 0 then begin
      out.(!w) <- b.(!j);
      incr j
    end
    else begin
      out.(!w) <- a.(!i);
      incr i;
      incr j
    end;
    incr w
  done;
  while !i < la do
    out.(!w) <- a.(!i);
    incr i;
    incr w
  done;
  while !j < lb do
    out.(!w) <- b.(!j);
    incr j;
    incr w
  done;
  Array.sub out 0 !w

let is_read_only t = Array.length t.write_set = 0

let exists ctx k = not (Value.is_absent (ctx.read k))

let insert ctx k v =
  if Value.is_absent v then invalid_arg "Txn.insert: cannot insert the absent marker";
  ctx.write k v

let delete ctx k = ctx.write k Value.absent

let pp fmt t =
  Format.fprintf fmt "txn#%d reads=[%a] writes=[%a]" t.id
    (Format.pp_print_seq ~pp_sep:(fun f () -> Format.pp_print_string f ";") Key.pp)
    (Array.to_seq t.read_set)
    (Format.pp_print_seq ~pp_sep:(fun f () -> Format.pp_print_string f ";") Key.pp)
    (Array.to_seq t.write_set)

let header ~title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let note s = Printf.printf "  %s\n" s

let float_to_string f =
  let rounded = Int64.of_float (Float.round f) in
  let s = Int64.to_string rounded in
  let negative = String.length s > 0 && s.[0] = '-' in
  let digits = if negative then String.sub s 1 (String.length s - 1) else s in
  let n = String.length digits in
  let buf = Buffer.create (n + (n / 3) + 1) in
  String.iteri
    (fun i c ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    digits;
  (if negative then "-" else "") ^ Buffer.contents buf

let print_series ~x_label ~columns ~rows =
  let cell = function Some v -> float_to_string v | None -> "-" in
  let col_width label values =
    List.fold_left (fun acc v -> max acc (String.length v)) (String.length label) values
  in
  let rendered = List.map (fun (x, vs) -> (x, List.map cell vs)) rows in
  let x_width = col_width x_label (List.map fst rendered) in
  let widths =
    List.mapi
      (fun i label -> col_width label (List.map (fun (_, vs) -> List.nth vs i) rendered))
      columns
  in
  let pad w s = String.make (max 0 (w - String.length s)) ' ' ^ s in
  Printf.printf "  %s |" (pad x_width x_label);
  List.iter2 (fun w label -> Printf.printf " %s" (pad w label)) widths columns;
  print_newline ();
  Printf.printf "  %s-+" (String.make x_width '-');
  List.iter (fun w -> Printf.printf "-%s" (String.make w '-')) widths;
  print_newline ();
  List.iter
    (fun (x, vs) ->
      Printf.printf "  %s |" (pad x_width x);
      List.iter2 (fun w v -> Printf.printf " %s" (pad w v)) widths vs;
      print_newline ())
    rendered

(* --- machine-readable output (--json) ---

   Every series printed through the harness is also recorded here;
   [json_write] dumps the accumulated run as one JSON document, including a
   per-column "ceiling" (the maximum value over the sweep) so successive
   PRs have a perf trajectory to diff without re-parsing tables. Hand
   rolled: the repository deliberately depends on no JSON library. *)

type json_series = {
  j_title : string;
  j_x_label : string;
  j_columns : string list;
  j_rows : (string * float option list) list;
}

let json_recorded : json_series list ref = ref []

let json_record ~title ~x_label ~columns ~rows =
  json_recorded :=
    { j_title = title; j_x_label = x_label; j_columns = columns; j_rows = rows }
    :: !json_recorded

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let json_cell = function Some v -> json_float v | None -> "null"

let ceilings s =
  List.mapi
    (fun i col ->
      let best =
        List.fold_left
          (fun acc (_, vs) ->
            match List.nth_opt vs i with
            | Some (Some v) -> ( match acc with Some b when b >= v -> acc | _ -> Some v)
            | _ -> acc)
          None s.j_rows
      in
      (col, best))
    s.j_columns

let json_write ~path =
  let out = Buffer.create 4096 in
  let add = Buffer.add_string out in
  add "{\n  \"series\": [";
  List.iteri
    (fun i s ->
      if i > 0 then add ",";
      add "\n    {\n";
      add (Printf.sprintf "      \"title\": \"%s\",\n" (json_escape s.j_title));
      add (Printf.sprintf "      \"x_label\": \"%s\",\n" (json_escape s.j_x_label));
      add "      \"columns\": [";
      add
        (String.concat ", "
           (List.map (fun c -> Printf.sprintf "\"%s\"" (json_escape c)) s.j_columns));
      add "],\n      \"rows\": [";
      List.iteri
        (fun j (x, vs) ->
          if j > 0 then add ",";
          add
            (Printf.sprintf "\n        {\"x\": \"%s\", \"values\": [%s]}"
               (json_escape x)
               (String.concat ", " (List.map json_cell vs))))
        s.j_rows;
      add "\n      ],\n      \"ceilings\": {";
      add
        (String.concat ", "
           (List.map
              (fun (col, best) ->
                Printf.sprintf "\"%s\": %s" (json_escape col) (json_cell best))
              (ceilings s)));
      add "}\n    }")
    (List.rev !json_recorded);
  add "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents out);
  close_out oc

let print_kv pairs =
  let width = List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 pairs in
  List.iter
    (fun (k, v) ->
      Printf.printf "  %s%s : %s\n" k (String.make (width - String.length k) ' ') v)
    pairs

type series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float option list) list;
  notes : string list;
}

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

   [json_write] dumps a run's series as one JSON document, including a
   per-column "ceiling" (the maximum value over the sweep) so successive
   PRs have a perf trajectory to diff without re-parsing tables. Hand
   rolled: the repository deliberately depends on no JSON library. *)

module Chrome = Bohm_obs.Chrome

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
          None s.rows
      in
      (col, best))
    s.columns

let json_write ~path series =
  let out = Buffer.create 4096 in
  let add = Buffer.add_string out in
  add "{\n  \"series\": [";
  List.iteri
    (fun i s ->
      if i > 0 then add ",";
      add "\n    {\n";
      add (Printf.sprintf "      \"title\": \"%s\",\n" (Chrome.escape s.title));
      add (Printf.sprintf "      \"x_label\": \"%s\",\n" (Chrome.escape s.x_label));
      add "      \"columns\": [";
      add
        (String.concat ", "
           (List.map (fun c -> Printf.sprintf "\"%s\"" (Chrome.escape c)) s.columns));
      add "],\n      \"rows\": [";
      List.iteri
        (fun j (x, vs) ->
          if j > 0 then add ",";
          add
            (Printf.sprintf "\n        {\"x\": \"%s\", \"values\": [%s]}"
               (Chrome.escape x)
               (String.concat ", " (List.map json_cell vs))))
        s.rows;
      add "\n      ],\n      \"ceilings\": {";
      add
        (String.concat ", "
           (List.map
              (fun (col, best) ->
                Printf.sprintf "\"%s\": %s" (Chrome.escape col) (json_cell best))
              (ceilings s)));
      add "}\n    }")
    series;
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

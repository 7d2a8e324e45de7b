(* Timestamps arrive in the runtime's [now_ns] unit and the trace-event
   format wants microseconds; three decimal places keep full integer
   nanosecond (or cycle) resolution. *)
let us ts = Printf.sprintf "%.3f" (float_of_int ts /. 1000.)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_line ~tid e =
  match e with
  | Buf.Begin { name; batch; ts } ->
      let args = if batch >= 0 then Printf.sprintf ", \"args\": {\"batch\": %d}" batch else "" in
      Printf.sprintf
        "{\"ph\": \"B\", \"ts\": %s, \"pid\": 0, \"tid\": %d, \"name\": \"%s\"%s}"
        (us ts) tid (escape name) args
  | Buf.End { name; ts } ->
      Printf.sprintf
        "{\"ph\": \"E\", \"ts\": %s, \"pid\": 0, \"tid\": %d, \"name\": \"%s\"}"
        (us ts) tid (escape name)
  | Buf.Instant { name; batch; value; ts } ->
      let args =
        if batch >= 0 then
          Printf.sprintf ", \"args\": {\"batch\": %d, \"value\": %d}" batch value
        else Printf.sprintf ", \"args\": {\"value\": %d}" value
      in
      Printf.sprintf
        "{\"ph\": \"i\", \"ts\": %s, \"pid\": 0, \"tid\": %d, \"name\": \"%s\", \
         \"s\": \"t\"%s}"
        (us ts) tid (escape name) args

(* Counter samples render as "C" events on a dedicated tid above the
   span tracks; Perfetto draws each distinct name as its own curve. *)
let counter_line ~tid (ts, name, value) =
  Printf.sprintf
    "{\"ph\": \"C\", \"ts\": %s, \"pid\": 0, \"tid\": %d, \"name\": \"%s\", \
     \"args\": {\"value\": %.3f}}"
    (us ts) tid (escape name) value

let to_string ?(counters = []) recorder =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  let counter_tid =
    List.fold_left
      (fun acc buf -> max acc (Buf.tid buf + 1))
      0
      (Recorder.tracks recorder)
  in
  List.iter
    (fun buf ->
      let tid = Buf.tid buf in
      emit
        (Printf.sprintf
           "{\"ph\": \"M\", \"ts\": 0, \"pid\": 0, \"tid\": %d, \"name\": \
            \"thread_name\", \"args\": {\"name\": \"%s\"}}"
           tid
           (escape (Buf.name buf)));
      List.iter (fun e -> emit (event_line ~tid e)) (Buf.events buf))
    (Recorder.tracks recorder);
  if counters <> [] then begin
    emit
      (Printf.sprintf
         "{\"ph\": \"M\", \"ts\": 0, \"pid\": 0, \"tid\": %d, \"name\": \
          \"thread_name\", \"args\": {\"name\": \"timeline\"}}"
         counter_tid);
    List.iter (fun c -> emit (counter_line ~tid:counter_tid c)) counters
  end;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write ?counters ~path recorder =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?counters recorder))

(* --- re-import ------------------------------------------------------ *)

(* Parse a document we exported back into a recorder, so analyses
   ([Timeline], [Critical_path], `bohm_cli report`) run on saved trace
   files. This is also the format's one structural check: a document
   that parses has every required key on every event line and balanced
   B/E spans on every track. Only our own one-event-per-line shape is
   supported. *)

(* Fields are found by [locate], the one substring search, and read by a
   small decoder from the position it returns — enough structure for
   documents we emitted ourselves. *)

(* Position just past the first ["key":] at or after [from]. Two
   occurrences of the pattern never overlap, so a scan for the next one
   resumes at the position returned. *)
let locate ?(from = 0) line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else search (i + 1)
  in
  search from

let has_key line key = locate line key <> None

let rec skip_blanks line j =
  if j < String.length line && line.[j] = ' ' then skip_blanks line (j + 1)
  else j

(* End of the run of [ok] characters starting at [j]. *)
let rec run_end line j ok =
  if j < String.length line && ok line.[j] then run_end line (j + 1) ok else j

let is_digit c = c >= '0' && c <= '9'

(* The integer following the first ["key": ]. *)
let find_int line key =
  Option.bind (locate line key) (fun p ->
      let start = skip_blanks line p in
      let digits =
        if start < String.length line && line.[start] = '-' then start + 1
        else start
      in
      let stop = run_end line digits is_digit in
      if stop > digits then
        Some (int_of_string (String.sub line start (stop - start)))
      else None)

(* Timestamps were printed as microseconds with three decimals, i.e.
   exact thousandths — scale back to integral ns/cycles. *)
let find_ts line =
  Option.bind (locate line "ts") (fun p ->
      let start = skip_blanks line p in
      let stop =
        run_end line start (fun c -> c = '-' || c = '.' || is_digit c)
      in
      if stop > start then
        Some
          (int_of_float
             (Float.round
                (float_of_string (String.sub line start (stop - start))
                *. 1000.)))
      else None)

(* Where each string value of [key] starts (just past its opening quote,
   one blank after the colon), in line order. *)
let rec str_starts ?(from = 0) line key =
  match locate ~from line key with
  | None -> []
  | Some p ->
      let rest = str_starts ~from:p line key in
      if p + 1 < String.length line && line.[p] = ' ' && line.[p + 1] = '"'
      then (p + 2) :: rest
      else rest

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | 'n' -> Buffer.add_char b '\n'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
       incr i
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

(* The string starting at [s], up to the closing unescaped quote. *)
let str_at line s =
  let llen = String.length line in
  let rec close j =
    if j >= llen then None
    else if line.[j] = '\\' then close (j + 2)
    else if line.[j] = '"' then Some j
    else close (j + 1)
  in
  Option.map (fun e -> unescape (String.sub line s (e - s))) (close s)

(* The first string value of [key]; [last] picks the final one that is
   terminated instead — metadata lines carry two [name] keys (the literal
   thread_name and the track name in args). *)
let find_str ?(last = false) line key =
  match str_starts line key with
  | s :: _ when not last -> str_at line s
  | starts ->
      List.fold_left
        (fun best s -> match str_at line s with None -> best | v -> v)
        None starts

let ph_of line =
  match str_starts line "ph" with
  | s :: _ when s < String.length line -> Some line.[s]
  | _ -> None

(* Besides ["ph"], every event line carries these. *)
let required_keys = [ "ts"; "pid"; "tid"; "name" ]

let of_string doc =
  let tracks : (int, Buf.t) Hashtbl.t = Hashtbl.create 16 in
  let recorder = Recorder.create () in
  let error = ref None in
  let fail lineno msg =
    if !error = None then
      error := Some (Printf.sprintf "line %d: %s" (lineno + 1) msg)
  in
  List.iteri
    (fun lineno line ->
      if !error = None && has_key line "ph" then
        match (ph_of line, find_int line "tid") with
        | _ when not (List.for_all (has_key line) required_keys) ->
            fail lineno "event missing a required key (ts, pid, tid, name)"
        | None, _ -> fail lineno "unparseable ph"
        | _, None -> fail lineno "unparseable tid"
        | Some 'M', Some tid -> (
            match find_str ~last:true line "name" with
            | Some name when name <> "thread_name" || has_key line "args" ->
                if name = "timeline" then () (* counter track: derived *)
                else if Hashtbl.mem tracks tid then
                  fail lineno "duplicate thread_name metadata"
                else begin
                  let buf = Recorder.track recorder ~name in
                  if Buf.tid buf <> tid then
                    fail lineno "non-sequential track tids"
                  else Hashtbl.replace tracks tid buf
                end
            | _ -> fail lineno "metadata without a track name")
        | Some 'C', _ -> () (* counters are derived from the spans *)
        | Some ph, Some tid -> (
            match (Hashtbl.find_opt tracks tid, find_ts line) with
            | None, _ -> fail lineno "event before its track metadata"
            | _, None -> fail lineno "unparseable ts"
            | Some buf, Some ts -> (
                let name =
                  Option.value ~default:"" (find_str line "name")
                in
                let batch = Option.value ~default:(-1) (find_int line "batch") in
                match ph with
                | 'B' -> Buf.begin_span buf ~phase:name ~batch ~ts
                | 'E' ->
                    if Buf.depth buf = 0 then fail lineno "E below zero"
                    else Buf.end_span buf ~ts
                | 'i' ->
                    let value =
                      Option.value ~default:0 (find_int line "value")
                    in
                    Buf.instant buf ~name ~batch ~value ~ts
                | c -> fail lineno (Printf.sprintf "unknown ph %C" c))))
    (String.split_on_char '\n' doc);
  (match (!error, Recorder.tracks recorder) with
  | Some _, _ -> ()
  | None, [] -> error := Some "no tracks found"
  | None, tracks -> (
      match List.find_opt (fun buf -> Buf.depth buf > 0) tracks with
      | Some buf ->
          error :=
            Some
              (Printf.sprintf "track %S ends with %d unclosed span(s)"
                 (Buf.name buf) (Buf.depth buf))
      | None -> ()));
  match !error with None -> Ok recorder | Some msg -> Error msg

let read ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let doc = really_input_string ic n in
      of_string doc)

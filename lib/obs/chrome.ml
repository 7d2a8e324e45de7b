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

(* --- line scanning ---------------------------------------------------- *)

(* [find_int line key] extracts the integer following ["key": ] — enough
   structure for documents we emitted ourselves (one event per line). *)
let find_int line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while !j < llen && line.[!j] = ' ' do incr j done;
      let start = !j in
      let neg = !j < llen && line.[!j] = '-' in
      if neg then incr j;
      while !j < llen && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      if !j > start + (if neg then 1 else 0) then
        Some (int_of_string (String.sub line start (!j - start)))
      else None
    end
    else search (i + 1)
  in
  search 0

let has_key line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then false
    else String.sub line i plen = pat || search (i + 1)
  in
  search 0

(* Besides ["ph"], every event line carries these. *)
let required_keys = [ "ts"; "pid"; "tid"; "name" ]

let ph_of line =
  let pat = "\"ph\": \"" in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen >= llen then None
    else if String.sub line i plen = pat then Some line.[i + plen]
    else search (i + 1)
  in
  search 0

(* --- re-import ------------------------------------------------------ *)

(* Parse a document we exported back into a recorder, so analyses
   ([Timeline], [Critical_path], `bohm_cli report`) run on saved trace
   files. This is also the format's one structural check: a document
   that parses has every required key on every event line and balanced
   B/E spans on every track. Only our own one-event-per-line shape is
   supported. *)

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

(* The quoted string value following a key, up to the closing unescaped
   quote. [last] picks the final occurrence — metadata lines carry two
   [name] keys (the literal thread_name and the track name in args). *)
let find_str ?(last = false) line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let plen = String.length pat and llen = String.length line in
  let value_at i =
    let j = ref (i + plen) in
    let stop = ref None in
    while !stop = None && !j < llen do
      if line.[!j] = '\\' then j := !j + 2
      else if line.[!j] = '"' then stop := Some !j
      else incr j
    done;
    Option.map
      (fun e -> unescape (String.sub line (i + plen) (e - (i + plen))))
      !stop
  in
  let rec search i best =
    if i + plen > llen then best
    else if String.sub line i plen = pat then
      let v = value_at i in
      if last then search (i + 1) (match v with None -> best | v -> v)
      else v
    else search (i + 1) best
  in
  search 0 None

(* Timestamps were printed as microseconds with three decimals, i.e.
   exact thousandths — scale back to integral ns/cycles. *)
let find_ts line =
  let pat = "\"ts\":" in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while !j < llen && line.[!j] = ' ' do incr j done;
      let start = !j in
      while
        !j < llen
        && (line.[!j] = '-' || line.[!j] = '.'
           || (line.[!j] >= '0' && line.[!j] <= '9'))
      do
        incr j
      done;
      if !j > start then
        Some
          (int_of_float
             (Float.round
                (float_of_string (String.sub line start (!j - start)) *. 1000.)))
      else None
    end
    else search (i + 1)
  in
  search 0

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

type t = {
  cc_threads : int;
  exec_threads : int;
  batch_size : int;
  shards : int;
  gc : bool;
  read_annotation : bool;
  preprocess : bool;
  cc_rebalance : bool;
  obs : bool;
}

let max_shards = 62

let make ?(cc_threads = 2) ?(exec_threads = 2) ?(batch_size = 1000) ?(shards = 1)
    ?(gc = true) ?(read_annotation = true) ?(preprocess = false)
    ?(cc_rebalance = true) ?(obs = false) () =
  if cc_threads <= 0 then invalid_arg "Config.make: cc_threads must be positive";
  if exec_threads <= 0 then invalid_arg "Config.make: exec_threads must be positive";
  if batch_size <= 0 then invalid_arg "Config.make: batch_size must be positive";
  if shards <= 0 then invalid_arg "Config.make: shards must be positive";
  if shards > max_shards then
    invalid_arg (Printf.sprintf "Config.make: shards must be at most %d" max_shards);
  {
    cc_threads;
    exec_threads;
    batch_size;
    shards;
    gc;
    read_annotation;
    preprocess;
    cc_rebalance;
    obs;
  }

let observed c = { c with obs = true }

let pp fmt t =
  Format.fprintf fmt
    "cc=%d exec=%d batch=%d shards=%d gc=%b annotate=%b pre=%b rebal=%b obs=%b"
    t.cc_threads t.exec_threads t.batch_size t.shards t.gc t.read_annotation
    t.preprocess t.cc_rebalance t.obs

(* What one run reports: the operation tally, the answers it found wrong,
   and its metrics by name. The benchmark's metric catalogue lives here so
   that the JSON output, the per-layer table and BENCHMARK.json name the
   same things. *)

(* End-to-end metrics: what the S3 front end waiting on a node, or the
   engineer running the checkers, sees. Every workload reports each. *)
let end_to_end = [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_us", "us"); ("p99_us", "us") ]

(* Per-layer metrics of a traced run; 0 where the workload leaves a layer
   idle. The first six are workload-specific end-to-end figures (scan and
   cold-read latency, restart time, write amplification) that not every
   workload has, so they are reported here rather than bounded.
   [disk.reads_per_get] counts pages fetched below the cache per read
   request: the scheduler serves them from its image of the disk, so the
   device's own read counter stays at 0. *)
let per_layer =
  [
    ("scan_p50_us", "us");
    ("scan_p99_us", "us");
    ("cold_get_p50_us", "us");
    ("cold_get_p99_us", "us");
    ("recover_ms", "ms");
    ("write_amp", "ratio");
    ("rpc.codec_pct", "%");
    ("rpc.handle_pct", "%");
    ("rpc.tick_pct", "%");
    ("store.shutdown_pct", "%");
    ("lsm.flushes_per_kop", "count");
    ("lsm.compactions_per_kop", "count");
    ("lsm.run_bytes_per_user_byte", "ratio");
    ("lsm.level_runs", "count");
    ("chunk.reclamations", "count");
    ("chunk.evacuated", "count");
    ("chunk.space_amp", "ratio");
    ("iosched.ios_per_append", "ratio");
    ("iosched.coalesced_appends", "count");
    ("disk.bytes_written", "bytes");
    ("disk.resets", "count");
    ("disk.reads_per_get", "ratio");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("shared.get_pct", "%");
    ("shared.scan_pct", "%");
    ("shared.scaling", "ratio");
    ("lfm.gen_pct", "%");
    ("lfm.replay_pct", "%");
    ("lfm.check_pct", "%");
    ("par.speedup", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_per_kop", "count");
    ("trace.overhead", "ratio");
    ("trace.spans", "count");
    ("host.probe_ms", "ms");
    ("host.nproc", "count");
    ("host.load1", "load");
    ("host.steal_pct", "%");
  ]

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_wrong : string list;  (** newest first, at most five *)
  mutable first_failed : string list;  (** failures worth naming, newest first, at most five *)
  values : (string, float) Hashtbl.t;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    wrong = 0;
    first_wrong = [];
    first_failed = [];
    values = Hashtbl.create 64;
  }

let set t name v = Hashtbl.replace t.values name v
let get t name = Option.value (Hashtbl.find_opt t.values name) ~default:0.

let wrong t fmt =
  Printf.ksprintf
    (fun s ->
      t.wrong <- t.wrong + 1;
      if t.wrong <= 5 then t.first_wrong <- s :: t.first_wrong)
    fmt

(* Counts a failed operation and keeps its description for the summary. *)
let failure t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      if List.length t.first_failed < 5 then t.first_failed <- s :: t.first_failed)
    fmt

(* Folds a client domain's tally into the run's. *)
let absorb ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.wrong <- into.wrong + t.wrong;
  into.first_wrong <- t.first_wrong @ into.first_wrong;
  into.first_failed <- t.first_failed @ into.first_failed

let correct t = t.wrong = 0

(* [ratio a b] — [a /. b], 0 when nothing was measured. *)
let ratio a b = if b = 0. then 0. else a /. b

let pct part whole = 100. *. ratio part whole

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line: exactly the keys correct, attempted, failed and
   metrics, with the metrics of [catalogue] in order. *)
let to_json t catalogue =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (get t name)) unit)
      catalogue
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted t.failed (String.concat ", " metrics)

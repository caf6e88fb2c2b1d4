(* The [ingest] and [overwrite] workloads: one closed-loop client driving a
   multi-disk [Rpc.Node] over the wire codec, ticking its maintenance
   every few requests, and checking every answer against {!Kv_check}. *)

module S = Store.Default
module M = Rpc.Message
module N = Rpc.Node

type geometry = {
  disks : int;
  cfg : S.config;
  fill : float;  (** share of the node's raw capacity the live set occupies *)
  batch : int;  (** puts per [Batch_request] *)
  tick_every : int;  (** requests between maintenance ticks *)
}

(* 4 disks of 64 x 32 KiB extents, each with a 64 KiB cache of 128 x 512 B
   pages (the store's default geometry), filled to a quarter. *)
let default_geometry =
  { disks = 4; cfg = S.default_config; fill = 0.25; batch = 16; tick_every = 4 }

let capacity g = g.disks * g.cfg.S.disk.Disk.extent_count * Disk.extent_size g.cfg.S.disk

(* Value sizes 64 B - 12 KiB: half up to 1 KiB, a third up to one 8 KiB
   chunk, and the rest beyond it, spanning two chunks. Sizes are read off
   the distribution's quantile function and shuffled, so every seed draws
   the same multiset of sizes and does the same work; the seed decides
   which key gets which size, and the bytes. *)
let size_at q =
  let lerp lo hi f = lo + int_of_float (f *. float_of_int (hi - lo)) in
  if q < 0.5 then lerp 64 1024 (q /. 0.5)
  else if q < 0.85 then lerp 1025 8192 ((q -. 0.5) /. 0.35)
  else lerp 8193 12288 ((q -. 0.85) /. 0.15)

let mean_size = 3421

let values rng n =
  let sizes = Array.init n (fun i -> size_at ((float_of_int i +. 0.5) /. float_of_int n)) in
  Util.Rng.shuffle rng sizes;
  Array.map (fun len -> Bytes.to_string (Util.Rng.bytes rng len)) sizes

(* {2 The wire client} *)

(* One request's round trip. Untraced, it is exactly what a front end
   pays: encode, [Node.handle_wire], decode. Traced, the server side of
   [handle_wire] is unrolled into its public steps (decode, [Node.handle],
   encode) so codec and dispatch time are told apart. *)
let call ~tr node req =
  let decode_response bytes =
    match M.decode_response bytes with
    | Ok r -> r
    | Error e -> M.Error_response (Format.asprintf "undecodable response: %a" Util.Codec.pp_error e)
  in
  match tr with
  | None -> decode_response (N.handle_wire node (M.encode_request req))
  | Some t ->
    let codec f = Spans.span t "rpc.codec" f in
    let bytes = codec (fun () -> M.encode_request req) in
    let resp =
      match codec (fun () -> M.decode_request bytes) with
      | Ok r -> Spans.span t "rpc.handle" (fun () -> N.handle node r)
      | Error e -> M.Error_response (Format.asprintf "bad request: %a" Util.Codec.pp_error e)
    in
    let out = codec (fun () -> M.encode_response resp) in
    codec (fun () -> decode_response out)

(* {2 Counters} *)

(* Counters summed over every disk's registry. *)
let node_counter node name =
  let n = ref 0 in
  for disk = 0 to N.disk_count node - 1 do
    n := !n + Obs.counter_value (N.store_obs node ~disk) name
  done;
  float_of_int !n

let counters =
  [
    "disk.bytes_written";
    "disk.reset";
    "index.flush";
    "index.compact";
    "index.run_bytes";
    "chunk.reclamation";
    "reclaim.evacuated";
    "iosched.append";
    "iosched.io_issued";
    "iosched.coalesced_append";
    "cache.hit";
    "cache.miss";
    "cache.eviction";
  ]

(* Per-layer counts accumulated over the timed phases of a run. *)
type tally = {
  counts : (string, float) Hashtbl.t;
  mutable user_bytes : float;  (** value bytes of acknowledged puts *)
  mutable data_ops : int;  (** puts and gets attempted *)
  mutable minor_words : float;
  mutable major : int;
}

let tally () =
  { counts = Hashtbl.create 16; user_bytes = 0.; data_ops = 0; minor_words = 0.; major = 0 }

let count tl name = Option.value (Hashtbl.find_opt tl.counts name) ~default:0.

(* [measured tl node f] runs [f] and adds the node's counter deltas and
   the GC's work over it to [tl]. *)
let measured tl node f =
  let before = List.map (node_counter node) counters in
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  List.iter2
    (fun name b -> Hashtbl.replace tl.counts name (count tl name +. node_counter node name -. b))
    counters before;
  tl.minor_words <- tl.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  tl.major <- tl.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  v

(* Bytes the node's disks hold: every extent's write pointer. *)
let occupied node =
  let n = ref 0 in
  for disk = 0 to N.disk_count node - 1 do
    let sched = S.sched (N.store node ~disk) in
    for extent = 0 to Io_sched.extent_count sched - 1 do
      n := !n + Io_sched.soft_ptr sched ~extent
    done
  done;
  float_of_int !n

let live_bytes model =
  List.fold_left
    (fun acc key ->
      match Kv_check.find model.Kv_check.now key with
      | [ Some v ] -> acc +. float_of_int (String.length v)
      | _ -> acc)
    0. (Kv_check.keys model)

(* {2 Requests} *)

type client = {
  node : N.t;
  model : Kv_check.t;
  m : Metric.t;
  tr : Spans.t option;
  tl : tally;
  tick_every : int;
  mutable requests : int;
}

let tick c =
  let (_ : N.tick_report) = Spans.wrap c.tr "rpc.tick" (fun () -> N.tick c.node) in
  ()

(* Sends one batch of puts; returns the number acknowledged. *)
let put_batch c ~lat ops =
  (match c.tr with Some t -> Spans.next_request t | None -> ());
  let t0 = Clock.now_ns () in
  let resp =
    Spans.wrap c.tr "req.batch" (fun () ->
        call ~tr:c.tr c.node
          (M.Batch_request
             { ops = List.map (fun (key, value) -> M.Batch_put { key; value }) ops }))
  in
  Stats.Samples.add lat (float_of_int (Clock.now_ns () - t0) /. 1e3);
  let n = List.length ops in
  c.m.Metric.attempted <- c.m.Metric.attempted + n;
  c.tl.data_ops <- c.tl.data_ops + n;
  let statuses =
    match resp with
    | M.Batch_response { statuses } when List.length statuses = n -> statuses
    | _ -> List.map (fun _ -> M.Op_error "request failed") ops
  in
  let acked = ref 0 in
  List.iter2
    (fun (key, value) status ->
      match status with
      | M.Op_ok | M.Op_quorum _ ->
        incr acked;
        c.tl.user_bytes <- c.tl.user_bytes +. float_of_int (String.length value);
        Kv_check.acked c.model ~key ~value
      | M.Op_error _ ->
        c.m.Metric.failed <- c.m.Metric.failed + 1;
        Kv_check.put_failed c.model ~key ~value)
    ops statuses;
  c.requests <- c.requests + 1;
  if c.requests mod c.tick_every = 0 then tick c;
  !acked

(* Sends one get and checks the answer; returns 1 when answered. *)
let get c ~lat ~what key =
  (match c.tr with Some t -> Spans.next_request t | None -> ());
  let t0 = Clock.now_ns () in
  let resp = Spans.wrap c.tr what (fun () -> call ~tr:c.tr c.node (M.Get { key })) in
  Stats.Samples.add lat (float_of_int (Clock.now_ns () - t0) /. 1e3);
  c.m.Metric.attempted <- c.m.Metric.attempted + 1;
  c.tl.data_ops <- c.tl.data_ops + 1;
  match resp with
  | M.Value v ->
    if not (Kv_check.ok c.model ~key v) then
      Metric.wrong c.m "%s %s: got %s" what key
        (match v with None -> "nothing" | Some v -> Printf.sprintf "%d bytes" (String.length v));
    1
  | _ ->
    c.m.Metric.failed <- c.m.Metric.failed + 1;
    0

(* Clean shutdown of every disk, recovery from the durable images, and a
   read-back of every key the client ever wrote. A disk whose shutdown
   fails keeps no promise beyond what it happened to persist. Returns the
   recovery time in seconds and the number of answered gets. *)
let restart c ~cold =
  let keys = Kv_check.keys c.model in
  for disk = 0 to N.disk_count c.node - 1 do
    Watchdog.doing "clean shutdown of disk" disk;
    c.m.Metric.attempted <- c.m.Metric.attempted + 1;
    match Spans.wrap c.tr "store.shutdown" (fun () -> S.clean_shutdown (N.store c.node ~disk)) with
    | Ok () -> ()
    | Error _ ->
      c.m.Metric.failed <- c.m.Metric.failed + 1;
      List.iter
        (fun key -> if N.disk_of_key c.node key = disk then Kv_check.forget_durability c.model ~key)
        keys
  done;
  let t0 = Clock.now_ns () in
  for disk = 0 to N.disk_count c.node - 1 do
    Watchdog.doing "recovery of disk" disk;
    c.m.Metric.attempted <- c.m.Metric.attempted + 1;
    match Spans.wrap c.tr "store.recover" (fun () -> S.recover (N.store c.node ~disk)) with
    | Ok () -> ()
    | Error _ -> c.m.Metric.failed <- c.m.Metric.failed + 1
  done;
  let recover_s = Clock.seconds_since t0 in
  let misses0 = node_counter c.node "cache.miss" in
  let answered = ref 0 in
  List.iteri
    (fun i key ->
      Watchdog.doing "read-back get" i;
      answered := !answered + get c ~lat:cold ~what:"req.cold_get" key)
    keys;
  Hashtbl.replace c.tl.counts "cold.page_reads"
    (count c.tl "cold.page_reads" +. node_counter c.node "cache.miss" -. misses0);
  Hashtbl.replace c.tl.counts "cold.gets"
    (count c.tl "cold.gets" +. float_of_int (List.length keys));
  (recover_s, !answered)

(* {2 Workloads} *)

type timings = {
  lat : Stats.Samples.t;  (** the workload's request, failed ones too *)
  cold : Stats.Samples.t;  (** read-back gets after recovery *)
  mutable rates : float list;  (** acknowledged ops per second, per round *)
  mutable recover : float list;  (** seconds per restart *)
}

let timings () =
  { lat = Stats.Samples.create (); cold = Stats.Samples.create (); rates = []; recover = [] }

(* [xs] cut into consecutive batches of [n]. *)
let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* {3 ingest} *)

type ingest = { batches : (string * string) list array }

(* One round's input: unique keys with values totalling [fill] of the
   node's capacity. Every round replays the same input on a fresh node. *)
let live_count g = int_of_float (g.fill *. float_of_int (capacity g)) / mean_size

let ingest_input ?(g = default_geometry) ~seed () =
  let rng = Util.Rng.create (Int64.of_int ((seed * 7919) + 1)) in
  let kvs =
    Array.mapi (fun i v -> (Printf.sprintf "ingest-%06d" i, v)) (values rng (live_count g))
  in
  { batches = Array.of_list (chunks g.batch (Array.to_list kvs)) }

let ingest_round ?(g = default_geometry) ~m ~tr ~tl ~tm input =
  let node = N.create ~disks:g.disks g.cfg in
  let c =
    { node; model = Kv_check.create (); m; tr; tl; tick_every = g.tick_every; requests = 0 }
  in
  let t0 = Clock.now_ns () in
  let acked =
    measured tl node (fun () ->
        let acked = ref 0 in
        Array.iteri
          (fun i ops ->
            Watchdog.doing "ingest: batch request" i;
            acked := !acked + put_batch c ~lat:tm.lat ops)
          input.batches;
        let recover_s, answered = restart c ~cold:tm.cold in
        tm.recover <- recover_s :: tm.recover;
        !acked + answered)
  in
  tm.rates <- (float_of_int acked /. Clock.seconds_since t0) :: tm.rates;
  Hashtbl.replace tl.counts "space.occupied" (occupied node);
  Hashtbl.replace tl.counts "space.live" (live_bytes c.model)

(* {3 overwrite} *)

type request = Batch of (string * string) list | Get of string

type overwrite = {
  preload : (string * string) list list;
  stream : request array;  (** one round *)
}

(* The live set (a quarter of capacity, unique keys) and one round's
   request stream: 16-put batches overwriting random live keys with
   values from a fixed pool, four batches to every single get. *)
let overwrite_input ?(g = default_geometry) ~seed ~round_bytes () =
  let rng = Util.Rng.create (Int64.of_int ((seed * 104729) + 3)) in
  let live =
    Array.to_list
      (Array.mapi (fun i v -> (Printf.sprintf "live-%06d" i, v)) (values rng (live_count g)))
  in
  let keys = Array.of_list (List.map fst live) in
  let pool = values rng 512 in
  let stream = ref [] and bytes = ref 0 and i = ref 0 in
  while !bytes < round_bytes do
    (if !i mod 5 = 4 then stream := Get (Util.Rng.pick rng keys) :: !stream
     else
       let picked = Hashtbl.create g.batch in
       while Hashtbl.length picked < min g.batch (Array.length keys) do
         Hashtbl.replace picked (Util.Rng.pick rng keys) (Util.Rng.pick rng pool)
       done;
       let ops = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) picked []) in
       List.iter (fun (_, v) -> bytes := !bytes + String.length v) ops;
       stream := Batch ops :: !stream);
    incr i
  done;
  { preload = chunks g.batch live; stream = Array.of_list (List.rev !stream) }

(* A fresh node holding the live set. The preload is checked like any
   other traffic but left out of the client's tally, which covers the
   timed rounds only. *)
let overwrite_node ?(g = default_geometry) ~m input =
  let node = N.create ~disks:g.disks g.cfg in
  let c =
    {
      node;
      model = Kv_check.create ();
      m;
      tr = None;
      tl = tally ();
      tick_every = g.tick_every;
      requests = 0;
    }
  in
  let lat = Stats.Samples.create () in
  List.iteri
    (fun i ops ->
      Watchdog.doing "overwrite: preload batch" i;
      ignore (put_batch c ~lat ops))
    input.preload;
  { c with tl = tally () }

let overwrite_rounds ~c ~tm ~rounds input =
  measured c.tl c.node (fun () ->
      for _ = 1 to rounds do
        let t0 = Clock.now_ns () in
        let acked = ref 0 in
        Array.iteri
          (fun i req ->
            Watchdog.doing "overwrite: request" i;
            match req with
            | Batch ops -> acked := !acked + put_batch c ~lat:tm.lat ops
            | Get key -> acked := !acked + get c ~lat:tm.lat ~what:"req.get" key)
          input.stream;
        tm.rates <- (float_of_int !acked /. Clock.seconds_since t0) :: tm.rates
      done);
  Hashtbl.replace c.tl.counts "space.occupied" (occupied c.node);
  Hashtbl.replace c.tl.counts "space.live" (live_bytes c.model);
  let recover_s, (_ : int) = restart c ~cold:tm.cold in
  tm.recover <- recover_s :: tm.recover

(* {2 Reporting} *)

(* The per-layer figures of a node workload from its tally and timings. *)
let layer_metrics m tl tm =
  let c = count tl in
  let kops = float_of_int tl.data_ops /. 1e3 in
  Metric.set m "write_amp" (Metric.ratio (c "disk.bytes_written") tl.user_bytes);
  Metric.set m "cold_get_p50_us" (Stats.Samples.p50 tm.cold);
  Metric.set m "cold_get_p99_us" (Stats.Samples.p99 tm.cold);
  Metric.set m "recover_ms" (1e3 *. Stats.median tm.recover);
  Metric.set m "lsm.flushes_per_kop" (Metric.ratio (c "index.flush") kops);
  Metric.set m "lsm.compactions_per_kop" (Metric.ratio (c "index.compact") kops);
  Metric.set m "lsm.run_bytes_per_user_byte" (Metric.ratio (c "index.run_bytes") tl.user_bytes);
  Metric.set m "chunk.reclamations" (c "chunk.reclamation");
  Metric.set m "chunk.evacuated" (c "reclaim.evacuated");
  Metric.set m "chunk.space_amp" (Metric.ratio (c "space.occupied") (c "space.live"));
  Metric.set m "iosched.ios_per_append" (Metric.ratio (c "iosched.io_issued") (c "iosched.append"));
  Metric.set m "iosched.coalesced_appends" (c "iosched.coalesced_append");
  Metric.set m "disk.bytes_written" (c "disk.bytes_written");
  Metric.set m "disk.resets" (c "disk.reset");
  Metric.set m "disk.reads_per_get" (Metric.ratio (c "cold.page_reads") (c "cold.gets"));
  Metric.set m "cache.hit_ratio"
    (Metric.ratio (c "cache.hit") (c "cache.hit" +. c "cache.miss"));
  Metric.set m "cache.evictions" (c "cache.eviction");
  Metric.set m "gc.minor_words_per_op" (Metric.ratio tl.minor_words (float_of_int tl.data_ops));
  Metric.set m "gc.major_per_kop" (Metric.ratio (float_of_int tl.major) kops)

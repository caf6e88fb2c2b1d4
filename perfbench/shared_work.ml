(* The [read-shared] workload: client domains share one [Store.Shared]
   whose values total several times its cache, flushed and compacted in
   set-up. Nine operations in ten are gets, skewed to a hot set that fits
   the cache; the rest are scans of at most 50 keys. Every answer is
   checked against the preload. No operation writes. *)

module S = Store.Default
module Sh = Store.Shared

type shape = {
  keys : int;
  hot : int;  (** keys in the hot set *)
  ops : int;  (** operations per client domain per round *)
  max_scan : int;
}

(* 1024 keys of 64 - 512 B (~4.5x the 64 KiB cache); the 32 hot keys
   (~9 KiB) fit in it. Nine operations in ten are gets (eight of them to
   the hot set), one in ten a scan of 1 - 50 keys. *)
let default_shape = { keys = 1024; hot = 32; ops = 3000; max_scan = 50 }

type op = Get of int | Scan of int * int  (** key index; first and last key index *)

type input = {
  preload : (string * string) array;  (** ascending by key *)
  streams : op array array;  (** one per client domain *)
}

let input ?(shape = default_shape) ~seed ~domains () =
  let rng = Util.Rng.create (Int64.of_int ((seed * 15485863) + 5)) in
  (* Every seed draws the same multisets (value sizes, scan lengths, the
     share of each kind of operation) in its own order, so seeds differ in
     placement and bytes but not in the amount of work. *)
  let sizes = Array.init shape.keys (fun i -> 64 + (i * (512 - 64) / shape.keys)) in
  Util.Rng.shuffle rng sizes;
  let preload =
    Array.mapi
      (fun i len -> (Printf.sprintf "rs-%05d" i, Bytes.to_string (Util.Rng.bytes rng len)))
      sizes
  in
  (* The hot set is spread over the key space, not one contiguous run. *)
  let hot = Array.init shape.hot (fun _ -> Util.Rng.int rng shape.keys) in
  let stream () =
    let ops =
      Array.init shape.ops (fun i ->
          if i mod 10 = 0 then
            let lo = Util.Rng.int rng shape.keys in
            let n = 1 + (i / 10 mod shape.max_scan) in
            Scan (lo, min (shape.keys - 1) (lo + n - 1))
          else if i mod 10 = 1 then Get (Util.Rng.int rng shape.keys)
          else Get (Util.Rng.pick rng hot))
    in
    Util.Rng.shuffle rng ops;
    ops
  in
  { preload; streams = Array.init domains (fun _ -> stream ()) }

(* A store holding the preload, drained to the base store, compacted. *)
let store ~m input =
  let sh = Sh.create ~shards:8 S.default_config in
  let batches = ref [] and cur = ref [] in
  Array.iteri
    (fun i kv ->
      cur := kv :: !cur;
      if (i + 1) mod 16 = 0 then begin
        batches := List.rev !cur :: !batches;
        cur := []
      end)
    input.preload;
  if !cur <> [] then batches := List.rev !cur :: !batches;
  List.iteri
    (fun i batch ->
      Watchdog.doing "read-shared: preload batch" i;
      m.Metric.attempted <- m.Metric.attempted + List.length batch;
      match Sh.put_batch sh batch with
      | Ok { Sh.results } ->
        List.iter
          (function Ok () -> () | Error _ -> m.Metric.failed <- m.Metric.failed + 1)
          results
      | Error _ -> m.Metric.failed <- m.Metric.failed + List.length batch)
    (List.rev !batches);
  Watchdog.doing "read-shared: set-up flush" 0;
  m.Metric.attempted <- m.Metric.attempted + 2;
  (match Sh.flush sh with Ok _ -> () | Error _ -> m.Metric.failed <- m.Metric.failed + 1);
  (match Sh.compact sh with Ok () -> () | Error _ -> m.Metric.failed <- m.Metric.failed + 1);
  sh

type client = {
  m : Metric.t;
  tr : Spans.t option;
  gets : Stats.Samples.t;
  scans : Stats.Samples.t;
}

let client ?tr () =
  { m = Metric.create (); tr; gets = Stats.Samples.create (); scans = Stats.Samples.create () }

let describe = function None -> "nothing" | Some v -> Printf.sprintf "%d bytes" (String.length v)

(* One client domain's pass over its stream; [slot] is its watchdog slot. *)
let run_stream ~slot sh input c stream =
  let m = c.m in
  Array.iteri
    (fun i op ->
      Watchdog.doing ~slot "read-shared: operation" i;
      (match c.tr with Some t -> Spans.next_request t | None -> ());
      m.Metric.attempted <- m.Metric.attempted + 1;
      let t0 = Clock.now_ns () in
      match op with
      | Get k ->
        let key, value = input.preload.(k) in
        let r = Spans.wrap c.tr "shared.get" (fun () -> Sh.get sh ~key) in
        Stats.Samples.add c.gets (float_of_int (Clock.now_ns () - t0) /. 1e3);
        (match r with
        | Ok got when Option.equal String.equal got (Some value) -> ()
        | Ok got -> Metric.wrong m "get %s: got %s" key (describe got)
        | Error _ -> m.Metric.failed <- m.Metric.failed + 1)
      | Scan (lo, hi) ->
        let r =
          Spans.wrap c.tr "shared.scan" (fun () ->
              Sh.scan sh ~lo:(fst input.preload.(lo)) ~hi:(fst input.preload.(hi)) ())
        in
        Stats.Samples.add c.scans (float_of_int (Clock.now_ns () - t0) /. 1e3);
        (match r with
        | Ok items ->
          let expected = Array.to_list (Array.sub input.preload lo (hi - lo + 1)) in
          if items <> expected then
            Metric.wrong m "scan [%s, %s]: %d items, expected %d" (fst input.preload.(lo))
              (fst input.preload.(hi)) (List.length items) (List.length expected)
        | Error _ -> m.Metric.failed <- m.Metric.failed + 1))
    stream

(* One round: every stream once, [domains] client domains in parallel
   (the streams dealt round-robin). Returns the round's wall time. *)
let round ~domains sh input clients =
  let streams = Array.length input.streams in
  let work d () =
    let i = ref d in
    while !i < streams do
      run_stream ~slot:d sh input clients.(d) input.streams.(!i);
      i := !i + domains
    done
  in
  let t0 = Clock.now_ns () in
  let helpers = List.init (domains - 1) (fun d -> Domain.spawn (work (d + 1))) in
  work 0 ();
  List.iter Domain.join helpers;
  Clock.seconds_since t0

let counters = [ "cache.hit"; "cache.miss"; "cache.eviction" ]
let counter sh name = float_of_int (Obs.counter_value (Sh.obs sh) name)

type pass = {
  rates : float list;  (** operations per second, per round *)
  clients : client array;
  deltas : (string * float) list;  (** counter deltas over the pass *)
  minor_words : float;
  major : int;
}

let ops_of input = Array.fold_left (fun n s -> n + Array.length s) 0 input.streams

(* [pass ~domains ~rounds ~traced sh input] — the timed phase. *)
let pass ~domains ~rounds ~traced sh input =
  let clients =
    Array.init domains (fun d ->
        client ?tr:(if traced then Some (Spans.create ~domain:d ()) else None) ())
  in
  let before = List.map (counter sh) counters in
  let g0 = Gc.quick_stat () in
  let rates =
    List.init rounds (fun _ -> float_of_int (ops_of input) /. round ~domains sh input clients)
  in
  let g1 = Gc.quick_stat () in
  {
    rates;
    clients;
    deltas = List.map2 (fun name b -> (name, counter sh name -. b)) counters before;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let merged p f =
  let s = Stats.Samples.create () in
  Array.iter (fun c -> Stats.Samples.append ~into:s (f c)) p.clients;
  s

let absorb ~into p = Array.iter (fun c -> Metric.absorb ~into c.m) p.clients

let level_runs sh = List.fold_left ( + ) 0 (S.level_runs (Sh.store sh))

(* Per-layer counts of an untraced pass. *)
let layer_metrics m sh p =
  let d name = List.assoc name p.deltas in
  let gets = Stats.Samples.count (merged p (fun c -> c.gets)) in
  let scans = merged p (fun c -> c.scans) in
  let ops = float_of_int (gets + Stats.Samples.count scans) in
  Metric.set m "scan_p50_us" (Stats.Samples.p50 scans);
  Metric.set m "scan_p99_us" (Stats.Samples.p99 scans);
  Metric.set m "lsm.level_runs" (float_of_int (level_runs sh));
  Metric.set m "disk.reads_per_get" (Metric.ratio (d "cache.miss") ops);
  Metric.set m "cache.hit_ratio" (Metric.ratio (d "cache.hit") (d "cache.hit" +. d "cache.miss"));
  Metric.set m "cache.evictions" (d "cache.eviction");
  Metric.set m "gc.minor_words_per_op" (Metric.ratio p.minor_words ops);
  Metric.set m "gc.major_per_kop" (Metric.ratio (float_of_int p.major) (ops /. 1e3))

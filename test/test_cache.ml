(* Tests for the buffer cache: hit/miss behaviour, invalidation on write
   and reset, LRU eviction, and the fault #2 site. *)


let config = { Disk.extent_count = 4; pages_per_extent = 4; page_size = 16 }

let make ?capacity_pages () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  (disk, sched, Cache.create ?capacity_pages sched)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %a" Io_sched.pp_error e

let append sched ~extent data =
  ignore (ok (Io_sched.append sched ~extent ~data ~input:Dep.trivial))

let test_read_through () =
  let _, sched, cache = make () in
  append sched ~extent:0 "hello-world-data";
  Alcotest.(check string) "read" "hello-world-data" (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check string) "cached read" "hello-world-data"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  let st = Cache.stats cache in
  Alcotest.(check bool) "second read hit" true (st.Cache.hits > 0)

let test_cross_page_read () =
  let _, sched, cache = make () in
  append sched ~extent:0 (String.init 40 (fun i -> Char.chr (65 + (i mod 26))));
  let direct = ok (Io_sched.read sched ~extent:0 ~off:10 ~len:25) in
  Alcotest.(check string) "spanning pages" direct (ok (Cache.read cache ~extent:0 ~off:10 ~len:25))

let test_read_beyond_pointer () =
  let _, _, cache = make () in
  match Cache.read cache ~extent:0 ~off:0 ~len:4 with
  | Error (Io_sched.Io (Disk.Out_of_bounds _)) -> ()
  | _ -> Alcotest.fail "read beyond soft pointer must fail"

let test_note_write_invalidates_tail () =
  let _, sched, cache = make () in
  append sched ~extent:0 "abc";
  Alcotest.(check string) "partial page" "abc" (ok (Cache.read cache ~extent:0 ~off:0 ~len:3));
  append sched ~extent:0 "def";
  Cache.note_write cache ~extent:0 ~off:3 ~len:3;
  Alcotest.(check string) "extended" "abcdef" (ok (Cache.read cache ~extent:0 ~off:0 ~len:6))

let test_note_reset_invalidates () =
  let _, sched, cache = make () in
  append sched ~extent:0 "old-data-in-page";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  ignore (ok (Io_sched.reset sched ~extent:0 ~input:Dep.trivial));
  Cache.note_reset cache ~extent:0;
  append sched ~extent:0 "new-data-in-page";
  Alcotest.(check string) "fresh after reset" "new-data-in-page"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:16))

let test_f2_serves_stale_after_reset () =
  Faults.disable_all ();
  let _, sched, cache = make () in
  append sched ~extent:0 "old-data-in-page";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  ignore (ok (Io_sched.reset sched ~extent:0 ~input:Dep.trivial));
  Faults.enable Faults.F2_cache_not_drained;
  Cache.note_reset cache ~extent:0;
  Faults.disable Faults.F2_cache_not_drained;
  append sched ~extent:0 "new-data-in-page";
  Alcotest.(check string) "stale page served" "old-data-in-page"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F2_cache_not_drained > 0)

let test_eviction () =
  let _, sched, cache = make ~capacity_pages:2 () in
  append sched ~extent:0 (String.make 64 'a');
  append sched ~extent:1 (String.make 64 'b');
  (* Touch 6 distinct pages with capacity 2. *)
  for page = 0 to 2 do
    ignore (ok (Cache.read cache ~extent:0 ~off:(page * 16) ~len:16));
    ignore (ok (Cache.read cache ~extent:1 ~off:(page * 16) ~len:16))
  done;
  let st = Cache.stats cache in
  Alcotest.(check bool) "evictions happened" true (st.Cache.evictions > 0)

(* Victim order pinned against a naive reference LRU. A seeded mix of
   appends (each followed, or not, by [note_write] and a write-allocate
   [fill]), reads, extent resets with [note_reset] and [invalidate_all]
   drives small caches; the evicted (extent, page) sequence read off the
   [cache]/[evict] trace events and the hit/miss/eviction counters must
   equal the reference's. The reference keeps resident pages most recent
   first with the byte length each caches: a read page hits when that
   length covers the bytes asked of it, a miss or a fill (re)inserts the
   page at the front, and an overflow evicts the last one. *)
module Ref_lru = struct
  type t = {
    cap : int;
    mutable lru : ((int * int) * int) list;
    mutable hits : int;
    mutable misses : int;
    mutable evicted : (int * int) list;  (* newest first *)
  }

  let create cap = { cap; lru = []; hits = 0; misses = 0; evicted = [] }
  let remove r key = r.lru <- List.filter (fun (k, _) -> k <> key) r.lru

  let insert r key len =
    remove r key;
    r.lru <- (key, len) :: r.lru;
    if List.length r.lru > r.cap then begin
      let victim = fst (List.nth r.lru (List.length r.lru - 1)) in
      remove r victim;
      r.evicted <- victim :: r.evicted
    end

  let read r ~ps ~soft ~extent ~off ~len =
    for page = off / ps to (off + len - 1) / ps do
      let key = (extent, page) in
      match List.assoc_opt key r.lru with
      | Some l when l >= min ps (off + len - (page * ps)) ->
        r.hits <- r.hits + 1;
        insert r key l
      | _ ->
        r.misses <- r.misses + 1;
        insert r key (min ps (soft - (page * ps)))
    done

  let fill r ~ps ~extent ~off ~len =
    for page = off / ps to (off + len - 1) / ps do
      if page * ps >= off then insert r (extent, page) (min ps (off + len - (page * ps)))
    done

  let note_write r ~ps ~extent ~off ~len =
    for page = off / ps to (off + len - 1) / ps do
      remove r (extent, page)
    done

  let note_reset r ~extent = r.lru <- List.filter (fun ((e, _), _) -> e <> extent) r.lru
end

let run_victim_order ~capacity ~write_allocate ~seed =
  Faults.disable_all ();
  let obs = Obs.create ~trace_capacity:(1 lsl 16) () in
  let disk = Disk.create config in
  let sched = Io_sched.create ~obs ~seed:6L disk in
  let cache = Cache.create ~capacity_pages:capacity ~write_allocate sched in
  let r = Ref_lru.create capacity in
  let rng = Random.State.make [| seed; capacity |] in
  let ps = Io_sched.page_size sched in
  let extents = Io_sched.extent_count sched in
  for _ = 1 to 400 do
    let extent = Random.State.int rng extents in
    let soft = Io_sched.soft_ptr sched ~extent in
    match Random.State.int rng 20 with
    | n when n < 6 && Io_sched.capacity_left sched ~extent > 0 ->
      let len = 1 + Random.State.int rng (min 24 (Io_sched.capacity_left sched ~extent)) in
      let data = String.init len (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
      append sched ~extent data;
      (* Skipping [note_write] leaves a short tail page cached: the next
         read that needs more of it replaces it through the miss path. *)
      if Random.State.int rng 4 > 0 then begin
        Cache.note_write cache ~extent ~off:soft ~len;
        Ref_lru.note_write r ~ps ~extent ~off:soft ~len
      end;
      if Random.State.bool rng then begin
        Cache.fill cache ~extent ~off:soft data;
        if write_allocate then Ref_lru.fill r ~ps ~extent ~off:soft ~len
      end
    | n when n < 17 && soft > 0 ->
      let off = Random.State.int rng soft in
      let len = 1 + Random.State.int rng (min 40 (soft - off)) in
      let direct = ok (Io_sched.read sched ~extent ~off ~len) in
      Alcotest.(check string) "cached read = direct read" direct
        (ok (Cache.read cache ~extent ~off ~len));
      Ref_lru.read r ~ps ~soft ~extent ~off ~len
    | n when n < 19 && soft > 0 ->
      ignore (ok (Io_sched.reset sched ~extent ~input:Dep.trivial));
      Cache.note_reset cache ~extent;
      Ref_lru.note_reset r ~extent
    | 19 ->
      Cache.invalidate_all cache;
      r.Ref_lru.lru <- []
    | _ -> ()
  done;
  Alcotest.(check bool) "trace ring did not wrap" true
    (Obs.events_emitted obs <= 1 lsl 16);
  let evicted =
    List.filter_map
      (fun (e : Obs.event) ->
        if e.layer = "cache" && e.event = "evict" then
          Some (int_of_string (List.assoc "extent" e.attrs), int_of_string (List.assoc "page" e.attrs))
        else None)
      (Obs.recent obs)
  in
  let st = Cache.stats cache in
  let key = Alcotest.(pair int int) in
  Alcotest.(check (list key)) "victim order" (List.rev r.evicted) evicted;
  Alcotest.(check int) "hits" r.hits st.Cache.hits;
  Alcotest.(check int) "misses" r.misses st.Cache.misses;
  Alcotest.(check int) "evictions" (List.length r.evicted) st.Cache.evictions;
  Alcotest.(check int) "no illegal transitions" 0
    (List.length (Cache.transition_violations cache));
  List.length r.evicted

let test_victim_order () =
  let total = ref 0 in
  List.iter
    (fun capacity ->
      List.iter
        (fun write_allocate ->
          for seed = 1 to 10 do
            total := !total + run_victim_order ~capacity ~write_allocate ~seed
          done)
        [ false; true ])
    [ 1; 2; 4 ];
  Alcotest.(check bool) "workload evicts" true (!total > 1000)

let test_miss_hits_injected_fault () =
  let disk, sched, cache = make () in
  append sched ~extent:0 "payload-goes-here";
  Disk.fail_once disk ~extent:0;
  (match Cache.read cache ~extent:0 ~off:0 ~len:8 with
  | Error (Io_sched.Io Disk.Transient) -> ()
  | _ -> Alcotest.fail "miss must surface injected fault");
  (* After the failure the entry is uncached; a retry succeeds. *)
  Alcotest.(check string) "retry" "payload-" (ok (Cache.read cache ~extent:0 ~off:0 ~len:8))

let test_hit_bypasses_injected_fault () =
  let disk, sched, cache = make () in
  append sched ~extent:0 "payload-goes-here";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Disk.fail_once disk ~extent:0;
  Alcotest.(check string) "hit bypasses disk" "payload-"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:8));
  Disk.heal disk ~extent:0

let test_invalidate_all () =
  let _, sched, cache = make () in
  append sched ~extent:0 "payload-goes-here";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Cache.invalidate_all cache;
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  let st = Cache.stats cache in
  Alcotest.(check int) "two misses" 2 st.Cache.misses

let test_write_allocate_hits () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create ~write_allocate:true sched in
  Alcotest.(check bool) "mode" true (Cache.write_allocate cache);
  let data = String.make 32 'w' in
  (match Io_sched.append sched ~extent:0 ~data ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  Cache.fill cache ~extent:0 ~off:0 data;
  (match Cache.read cache ~extent:0 ~off:0 ~len:32 with
  | Ok got -> Alcotest.(check string) "filled data" data got
  | Error _ -> Alcotest.fail "read");
  let st = Cache.stats cache in
  Alcotest.(check int) "no miss" 0 st.Cache.misses

let test_fill_noop_without_write_allocate () =
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create sched in
  (match Io_sched.append sched ~extent:0 ~data:(String.make 16 'x') ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  Cache.fill cache ~extent:0 ~off:0 (String.make 16 'x');
  ignore (Cache.read cache ~extent:0 ~off:0 ~len:16);
  let st = Cache.stats cache in
  Alcotest.(check int) "read missed (fill was a no-op)" 1 st.Cache.misses

let test_f17_corrupts_only_miss_path () =
  Faults.disable_all ();
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create ~write_allocate:true sched in
  let data = String.make 16 'd' in
  (match Io_sched.append sched ~extent:0 ~data ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  Cache.fill cache ~extent:0 ~off:0 data;
  Faults.enable Faults.F17_cache_miss_path;
  (* hit path: clean data despite the armed defect *)
  (match Cache.read cache ~extent:0 ~off:0 ~len:16 with
  | Ok got -> Alcotest.(check string) "hit unaffected" data got
  | Error _ -> Alcotest.fail "read");
  (* evict by invalidating, forcing the miss path *)
  Cache.invalidate_all cache;
  (match Cache.read cache ~extent:0 ~off:0 ~len:16 with
  | Ok got -> Alcotest.(check bool) "miss corrupted" true (got <> data)
  | Error _ -> Alcotest.fail "read");
  Faults.disable_all ();
  Alcotest.(check bool) "fired" true (Faults.fired Faults.F17_cache_miss_path > 0)

let test_coverage_counters () =
  Util.Coverage.reset ();
  let disk = Disk.create config in
  let sched = Io_sched.create ~seed:6L disk in
  let cache = Cache.create sched in
  (match Io_sched.append sched ~extent:0 ~data:(String.make 16 'x') ~input:Dep.trivial with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "append");
  ignore (Cache.read cache ~extent:0 ~off:0 ~len:16);
  ignore (Cache.read cache ~extent:0 ~off:0 ~len:16);
  Alcotest.(check int) "miss counted" 1 (Util.Coverage.count "cache.miss");
  Alcotest.(check int) "hit counted" 1 (Util.Coverage.count "cache.hit");
  Alcotest.(check (list string)) "blind spot listing" [ "cache.eviction" ]
    (Util.Coverage.blind_spots ~expected:[ "cache.hit"; "cache.miss"; "cache.eviction" ] ())

(* Every page entry moves through the Empty/Reading/Clean lifecycle and
   each observed transition is audited against Conc.Cache_sm.legal. A
   workload covering miss-fill, eviction, invalidation and the write path
   must leave a positive checked count and zero violations. *)
let test_lifecycle_audit_clean () =
  Faults.disable_all ();
  let _, sched, cache = make ~capacity_pages:2 () in
  append sched ~extent:0 (String.make 64 'a');
  append sched ~extent:1 (String.make 32 'b');
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  (* touch enough distinct pages to force LRU eviction (capacity 2) *)
  ignore (ok (Cache.read cache ~extent:0 ~off:16 ~len:16));
  ignore (ok (Cache.read cache ~extent:0 ~off:32 ~len:16));
  ignore (ok (Cache.read cache ~extent:1 ~off:0 ~len:16));
  append sched ~extent:1 "xx";
  Cache.note_write cache ~extent:1 ~off:32 ~len:2;
  Cache.invalidate_all cache;
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:16));
  Alcotest.(check bool) "transitions audited" true (Cache.transitions_checked cache > 0);
  Alcotest.(check int) "no illegal transitions" 0
    (List.length (Cache.transition_violations cache))

(* A stale short page whose refetch fails stays resident and must go
   back to Clean: left Empty, its later hit, eviction or invalidation
   would record an illegal Empty -> Empty edge. *)
let test_failed_refetch_keeps_lifecycle_legal () =
  Faults.disable_all ();
  let disk, sched, cache = make () in
  append sched ~extent:0 "abc";
  ignore (ok (Cache.read cache ~extent:0 ~off:0 ~len:3));
  (* no note_write: the cached page is now a stale short prefix *)
  append sched ~extent:0 "def";
  Disk.fail_once disk ~extent:0;
  (match Cache.read cache ~extent:0 ~off:0 ~len:6 with
  | Error (Io_sched.Io Disk.Transient) -> ()
  | _ -> Alcotest.fail "refetch must surface injected fault");
  Alcotest.(check string) "short prefix still served" "ab"
    (ok (Cache.read cache ~extent:0 ~off:0 ~len:2));
  Cache.invalidate_all cache;
  Alcotest.(check int) "no illegal transitions" 0
    (List.length (Cache.transition_violations cache))

let () =
  Faults.disable_all ();
  Faults.reset_counters ();
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "read through" `Quick test_read_through;
          Alcotest.test_case "cross page read" `Quick test_cross_page_read;
          Alcotest.test_case "read beyond pointer" `Quick test_read_beyond_pointer;
          Alcotest.test_case "write invalidates tail" `Quick test_note_write_invalidates_tail;
          Alcotest.test_case "reset invalidates" `Quick test_note_reset_invalidates;
          Alcotest.test_case "eviction" `Quick test_eviction;
          Alcotest.test_case "victim order = reference LRU" `Quick test_victim_order;
          Alcotest.test_case "invalidate all" `Quick test_invalidate_all;
          Alcotest.test_case "write allocate" `Quick test_write_allocate_hits;
          Alcotest.test_case "fill no-op without write allocate" `Quick
            test_fill_noop_without_write_allocate;
          Alcotest.test_case "coverage counters" `Quick test_coverage_counters;
          Alcotest.test_case "lifecycle audit clean" `Quick test_lifecycle_audit_clean;
        ] );
      ( "faults",
        [
          Alcotest.test_case "#2 stale after reset" `Quick test_f2_serves_stale_after_reset;
          Alcotest.test_case "miss hits injected fault" `Quick test_miss_hits_injected_fault;
          Alcotest.test_case "hit bypasses injected fault" `Quick test_hit_bypasses_injected_fault;
          Alcotest.test_case "failed refetch keeps lifecycle legal" `Quick
            test_failed_refetch_keeps_lifecycle_legal;
          Alcotest.test_case "#17 corrupts only the miss path" `Quick
            test_f17_corrupts_only_miss_path;
        ] );
    ]

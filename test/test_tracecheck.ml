(* Tests for lib/tracecheck: the wire-trace recorder (monotone timestamps,
   byte budget, JSONL export) and the offline linearizability audit
   (valid concurrent histories accepted, each seeded violation class
   rejected with a minimized subhistory, truncation and search-budget
   verdicts), plus end-to-end capture through Store.Shared, Rpc.Node,
   Fleet and a chaos campaign. *)

module T = Tracecheck.Trace
module A = Tracecheck.Audit

let e ts ev = { T.ts; src = "test"; ev }
let inv ts id op = e ts (T.Invoke { id; client = 0; op })
let resp ts id outcome = e ts (T.Respond { id; outcome })

let verdict = Alcotest.testable (Fmt.of_to_string A.verdict_name) ( = )

(* {2 Recorder} *)

let test_recorder_orders_and_counts () =
  let r = T.Recorder.create () in
  let id1 = T.Recorder.invoke r ~src:"a" (T.Put { key = "k"; value = "v" }) in
  let id2 = T.Recorder.invoke r ~src:"b" (T.Get { key = "k" }) in
  T.Recorder.respond r ~src:"a" ~id:id1 T.Acked;
  T.Recorder.mark r ~src:"a" ~node:2 T.Crash;
  T.Recorder.respond r ~src:"b" ~id:id2 (T.Got (Some "v"));
  let entries = T.Recorder.entries r in
  Alcotest.(check int) "events" 5 (T.Recorder.events_recorded r);
  Alcotest.(check int) "entries" 5 (List.length entries);
  Alcotest.(check bool) "distinct ids" true (id1 <> id2);
  Alcotest.(check int) "nothing dropped" 0 (T.Recorder.dropped r);
  let ts = List.map (fun en -> en.T.ts) entries in
  Alcotest.(check (list int)) "strictly ascending timestamps" (List.sort_uniq compare ts) ts;
  let jsonl = T.Recorder.to_jsonl r in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one JSONL line per event" 5 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_recorder_byte_budget_drops_pairs () =
  let obs = Obs.create ~scope:"tracecheck-test" ~trace_capacity:0 () in
  let r = T.Recorder.create ~obs ~byte_budget:600 () in
  let ids =
    List.init 16 (fun i ->
        let id = T.Recorder.invoke r ~src:"a" (T.Put { key = Printf.sprintf "key-%02d" i; value = String.make 32 'x' }) in
        T.Recorder.respond r ~src:"a" ~id T.Acked;
        id)
  in
  Alcotest.(check bool) "some events dropped" true (T.Recorder.dropped r > 0);
  Alcotest.(check bool) "budget respected" true
    (T.Recorder.bytes_used r <= T.Recorder.byte_budget r);
  Alcotest.(check int) "obs counter tracks drops" (T.Recorder.dropped r)
    (Obs.counter_value obs "obs.trace_dropped");
  (* A dropped invoke must drop its respond too: the surviving log still
     passes the wire-level checks (every respond has its invoke). *)
  let report = A.run (T.Recorder.entries r) in
  Alcotest.(check int) "log well-formed despite drops" 0 (List.length report.A.rejections);
  (* The audit of the recorder itself reports the truncation. *)
  let report = A.audit r in
  Alcotest.check verdict "truncated verdict" A.Truncated report.A.verdict;
  Alcotest.(check bool) "not ok" false (A.ok report);
  ignore ids

(* {2 Audit: valid histories} *)

let test_audit_accepts_sequential_history () =
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Get { key = "a" });
        resp 4 2 (T.Got (Some "x"));
        inv 5 3 (T.Delete { key = "a" });
        resp 6 3 T.Acked;
        inv 7 4 (T.Get { key = "a" });
        resp 8 4 (T.Got None);
      ]
  in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "ok" true (A.ok report);
  Alcotest.(check int) "ops" 4 report.A.ops

let test_audit_accepts_concurrent_overlap () =
  (* put y's interval nests inside put x's: linearizing y before x
     explains a later read of x even though y was invoked second. *)
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        inv 2 2 (T.Put { key = "a"; value = "y" });
        resp 3 2 T.Acked;
        resp 4 1 T.Acked;
        inv 5 3 (T.Get { key = "a" });
        resp 6 3 (T.Got (Some "x"));
      ]
  in
  Alcotest.check verdict "valid" A.Valid report.A.verdict

let test_audit_failed_mutation_indeterminate () =
  (* A failed put may or may not have landed: both read outcomes are
     admissible, and so is reading the old value afterwards. *)
  let history tail =
    [
      inv 1 1 (T.Put { key = "a"; value = "old" });
      resp 2 1 T.Acked;
      inv 3 2 (T.Put { key = "a"; value = "new" });
      resp 4 2 T.Failed;
    ]
    @ tail
  in
  List.iter
    (fun v ->
      let report = A.run (history [ inv 5 3 (T.Get { key = "a" }); resp 6 3 (T.Got (Some v)) ]) in
      Alcotest.check verdict (v ^ " admissible") A.Valid report.A.verdict)
    [ "old"; "new" ];
  (* A pending mutation (no response at all) is indeterminate too. *)
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        inv 2 2 (T.Get { key = "a" });
        resp 3 2 (T.Got (Some "x"));
      ]
  in
  Alcotest.check verdict "pending put readable" A.Valid report.A.verdict;
  Alcotest.(check int) "one pending op" 1 report.A.pending

let test_audit_same_key_batch_last_wins () =
  (* Two ops on one key inside one acked batch: the batch applies them
     in request order under one lock hold, so only the last value is
     ever observable. *)
  let history v =
    [
      inv 1 1 (T.Batch [ ("a", Some "x"); ("a", Some "y") ]);
      resp 2 1 (T.Batch_done [ true; true ]);
      inv 3 2 (T.Get { key = "a" });
      resp 4 2 (T.Got (Some v));
    ]
  in
  Alcotest.check verdict "last op readable" A.Valid (A.run (history "y")).A.verdict;
  Alcotest.check verdict "overwritten op rejected" A.Rejected (A.run (history "x")).A.verdict

(* {2 Audit: seeded violations (the teeth)} *)

let test_audit_rejects_lost_acked_write () =
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Get { key = "a" });
        resp 4 2 (T.Got None);
      ]
  in
  Alcotest.check verdict "rejected" A.Rejected report.A.verdict;
  match report.A.rejections with
  | [ r ] ->
    Alcotest.(check string) "names the key" "a" r.A.r_key;
    (* Minimization keeps the violation: the subhistory still carries
       both the acked put and the contradicting read. *)
    Alcotest.(check bool) "minimized subhistory non-empty" true (r.A.r_entries <> [])
  | rs -> Alcotest.failf "expected one rejection, got %d" (List.length rs)

let test_audit_rejects_stale_read () =
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Put { key = "a"; value = "y" });
        resp 4 2 T.Acked;
        inv 5 3 (T.Get { key = "a" });
        resp 6 3 (T.Got (Some "x"));
      ]
  in
  Alcotest.check verdict "rejected" A.Rejected report.A.verdict

let test_audit_rejects_snapshot_violation () =
  (* Per-key each answer is fine; no single point in the scan's interval
     can both miss "a" (certain from ts 3) and see "b" (possible from
     ts 4). *)
  let report =
    A.run
      [
        inv 1 4 (T.Scan { lo = None; hi = None });
        inv 2 1 (T.Put { key = "a"; value = "1" });
        resp 3 1 T.Acked;
        inv 4 2 (T.Put { key = "b"; value = "2" });
        resp 5 2 T.Acked;
        resp 6 4 (T.Scanned { items = [ ("b", "2") ]; complete = true });
      ]
  in
  Alcotest.check verdict "rejected" A.Rejected report.A.verdict

let test_audit_rejects_wire_malformations () =
  let cases =
    [
      ( "respond before invoke",
        [ inv 5 1 (T.Put { key = "a"; value = "x" }); resp 3 1 T.Acked ] );
      ( "unknown id",
        [ inv 1 1 (T.Put { key = "a"; value = "x" }); resp 2 7 T.Acked ] );
      ( "duplicate invoke id",
        [
          inv 1 1 (T.Put { key = "a"; value = "x" });
          e 2 (T.Invoke { id = 1; client = 0; op = T.Get { key = "a" } });
        ] );
      ( "outcome kind mismatch",
        [ inv 1 1 (T.Get { key = "a" }); resp 2 1 T.Acked ] );
      ( "batch arity mismatch",
        [
          inv 1 1 (T.Batch [ ("a", Some "x"); ("b", None) ]);
          resp 2 1 (T.Batch_done [ true ]);
        ] );
    ]
  in
  List.iter
    (fun (name, entries) ->
      let report = A.run entries in
      Alcotest.check verdict name A.Rejected report.A.verdict)
    cases

let test_audit_gives_up_on_tiny_budget () =
  (* Many mutually concurrent ops; a one-node budget cannot finish the
     search, and the verdict must admit that rather than claim Valid. *)
  let n = 12 in
  let invokes = List.init n (fun i -> inv (i + 1) (i + 1) (T.Put { key = "a"; value = string_of_int i })) in
  let resps = List.init n (fun i -> resp (n + i + 1) (i + 1) T.Acked) in
  let report = A.run ~budget_per_key:1 (invokes @ resps) in
  Alcotest.check verdict "gave up" A.Gave_up report.A.verdict;
  Alcotest.(check bool) "not ok" false (A.ok report)

(* {2 End-to-end capture} *)

let test_shared_store_capture_audits_valid () =
  let r = T.Recorder.create () in
  let s = Store.Shared.create ~shards:4 ~trace:r Store.Default.test_config in
  let ok_or_fail what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %a" what Store.Default.pp_error e
  in
  ok_or_fail "put" (Store.Shared.put s ~key:"a" ~value:"1");
  ok_or_fail "batch"
    (Store.Shared.put_batch s [ ("b", "2"); ("c", "3") ] : (Store.Shared.batch_result, _) result)
  |> fun (_ : Store.Shared.batch_result) -> ();
  Alcotest.(check (option string)) "get" (Some "1") (ok_or_fail "get" (Store.Shared.get s ~key:"a"));
  ignore (ok_or_fail "flush" (Store.Shared.flush s) : int);
  ok_or_fail "delete" (Store.Shared.delete s ~key:"a");
  let items = ok_or_fail "scan" (Store.Shared.scan s ()) in
  Alcotest.(check (list (pair string string))) "scan sees b c" [ ("b", "2"); ("c", "3") ] items;
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "flush marker recorded" true (report.A.markers > 0);
  Alcotest.(check bool) "scan judged" true (report.A.scans > 0)

let test_rpc_node_capture_audits_valid () =
  let r = T.Recorder.create () in
  let node = Rpc.Node.create ~trace:r Store.Default.test_config in
  let handle req = Rpc.Node.handle node req in
  for i = 0 to 9 do
    match handle (Rpc.Message.Put { key = Printf.sprintf "k%d" i; value = string_of_int i }) with
    | Rpc.Message.Ack -> ()
    | other -> Alcotest.failf "put: %a" Rpc.Message.pp_response other
  done;
  (* Drive a paginated scan through its continuation tokens: each page is
     its own recorded interval; only the last may claim completeness. *)
  let rec drain after n =
    match handle (Rpc.Message.Scan_request { lo = None; hi = None; after; max_results = 4 }) with
    | Rpc.Message.Scan_response { items; more } ->
      let n = n + List.length items in
      if more then
        match List.rev items with
        | (last, _) :: _ -> drain (Some last) n
        | [] -> n
      else n
    | other -> Alcotest.failf "scan: %a" Rpc.Message.pp_response other
  in
  Alcotest.(check int) "paginated scan sees all keys" 10 (drain None 0);
  (* Control-plane requests are not client-visible history. *)
  ignore (handle Rpc.Message.List : Rpc.Message.response);
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "pages judged as scans" true (report.A.scans >= 3)

let test_fleet_capture_markers_and_validity () =
  let r = T.Recorder.create () in
  let fleet = Fleet.create ~trace:r (Experiments.Chaos.fleet_config ~seed:7) in
  (match Fleet.put fleet ~key:"s00" ~value:"v" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "put: %a" Fleet.pp_error e);
  Fleet.crash_node fleet ~rng:(Util.Rng.create 5L) ~node:0;
  (match Fleet.get fleet ~key:"s00" with
  | Ok (Some "v") -> ()
  | Ok v -> Alcotest.failf "get: %a" Fmt.(Dump.option string) v
  | Error e -> Alcotest.failf "get: %a" Fleet.pp_error e);
  let kinds =
    List.filter_map
      (fun en -> match en.T.ev with T.Mark { kind; _ } -> Some kind | _ -> None)
      (T.Recorder.entries r)
  in
  Alcotest.(check bool) "crash marker" true (List.mem T.Crash kinds);
  Alcotest.(check bool) "restart marker" true (List.mem T.Restart kinds);
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict

let test_chaos_campaign_capture_audits_valid () =
  Faults.disable_all ();
  let ops = Experiments.Chaos.gen ~length:30 ~seed:3 in
  let r = T.Recorder.create ~byte_budget:(8 * 1024 * 1024) () in
  let violations, _, _ = Experiments.Chaos.run_ops ~trace:r ~seed:3 ops in
  Alcotest.(check int) "campaign clean" 0 (List.length violations);
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "trace non-trivial" true (report.A.entries > 20)

let () =
  Alcotest.run "tracecheck"
    [
      ( "recorder",
        [
          Alcotest.test_case "orders and counts" `Quick test_recorder_orders_and_counts;
          Alcotest.test_case "byte budget drops pairs" `Quick
            test_recorder_byte_budget_drops_pairs;
        ] );
      ( "audit accepts",
        [
          Alcotest.test_case "sequential history" `Quick test_audit_accepts_sequential_history;
          Alcotest.test_case "concurrent overlap" `Quick test_audit_accepts_concurrent_overlap;
          Alcotest.test_case "failed mutation indeterminate" `Quick
            test_audit_failed_mutation_indeterminate;
          Alcotest.test_case "same-key batch last wins" `Quick
            test_audit_same_key_batch_last_wins;
        ] );
      ( "audit rejects",
        [
          Alcotest.test_case "lost acked write" `Quick test_audit_rejects_lost_acked_write;
          Alcotest.test_case "stale read" `Quick test_audit_rejects_stale_read;
          Alcotest.test_case "snapshot violation" `Quick test_audit_rejects_snapshot_violation;
          Alcotest.test_case "wire malformations" `Quick test_audit_rejects_wire_malformations;
          Alcotest.test_case "tiny budget gives up" `Quick test_audit_gives_up_on_tiny_budget;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "shared store capture" `Quick
            test_shared_store_capture_audits_valid;
          Alcotest.test_case "rpc node capture" `Quick test_rpc_node_capture_audits_valid;
          Alcotest.test_case "fleet capture markers" `Quick
            test_fleet_capture_markers_and_validity;
          Alcotest.test_case "chaos campaign capture" `Quick
            test_chaos_campaign_capture_audits_valid;
        ] );
    ]

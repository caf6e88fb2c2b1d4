(* The benchmark's own tests, at a small size: every correctness check
   fails on a tampered expectation, the seeded fault is caught, the counts
   of the node workloads repeat exactly, and the watchdog names the
   operation in flight. *)

open Perfbench
module N = Rpc.Node

(* Two disks, filled to a few percent: a round takes milliseconds. *)
let small = { Node_work.default_geometry with Node_work.disks = 2; fill = 0.04 }

let client ?(g = small) () =
  {
    Node_work.node = N.create ~disks:g.Node_work.disks g.Node_work.cfg;
    model = Kv_check.create ();
    m = Metric.create ();
    tr = None;
    tl = Node_work.tally ();
    tick_every = g.Node_work.tick_every;
    requests = 0;
  }

let lat () = Stats.Samples.create ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let wrong c = c.Node_work.m.Metric.wrong

(* {2 Correctness with teeth} *)

let test_node_reads_checked () =
  let c = client () in
  let ops = [ ("a", "alpha"); ("b", "beta") ] in
  Alcotest.(check int) "both acked" 2 (Node_work.put_batch c ~lat:(lat ()) ops);
  ignore (Node_work.get c ~lat:(lat ()) ~what:"req.get" "a");
  Alcotest.(check int) "true expectation passes" 0 (wrong c);
  Kv_check.acked c.Node_work.model ~key:"a" ~value:"tampered";
  ignore (Node_work.get c ~lat:(lat ()) ~what:"req.get" "a");
  Alcotest.(check int) "tampered expectation fails" 1 (wrong c)

let test_ingest_readback_checked () =
  let input = Node_work.ingest_input ~g:small ~seed:7 () in
  let m = Metric.create () in
  Node_work.ingest_round ~g:small ~m ~tr:None ~tl:(Node_work.tally ()) ~tm:(Node_work.timings ())
    input;
  Alcotest.(check int) "clean round" 0 m.Metric.wrong;
  Alcotest.(check int) "no failures" 0 m.Metric.failed;
  (* The same round's read-back after recovery, against one tampered key. *)
  let c = client () in
  Array.iter (fun ops -> ignore (Node_work.put_batch c ~lat:(lat ()) ops)) input.Node_work.batches;
  let key, _ = List.hd input.Node_work.batches.(0) in
  Kv_check.acked c.Node_work.model ~key ~value:"tampered";
  let _, answered = Node_work.restart c ~cold:(lat ()) in
  Alcotest.(check bool) "read back" true (answered > 0);
  Alcotest.(check int) "tampered read-back fails" 1 (wrong c)

let test_indeterminate_after_failed_put () =
  let model = Kv_check.create () in
  Kv_check.acked model ~key:"k" ~value:"old";
  let fresh = "new" in
  Kv_check.put_failed model ~key:"k" ~value:fresh;
  Alcotest.(check bool) "old allowed" true (Kv_check.ok model ~key:"k" (Some "old"));
  Alcotest.(check bool) "failed value allowed" true (Kv_check.ok model ~key:"k" (Some "new"));
  Alcotest.(check bool) "other value wrong" false (Kv_check.ok model ~key:"k" (Some "other"));
  Alcotest.(check bool) "absence wrong" false (Kv_check.ok model ~key:"k" None);
  Kv_check.acked model ~key:"k" ~value:"newest";
  Alcotest.(check bool) "ack pins the key" false (Kv_check.ok model ~key:"k" (Some "old"))

let overwrite_small () =
  Node_work.overwrite_input ~g:small ~seed:3 ~round_bytes:(Node_work.capacity small / 2) ()

let test_overwrite_checked () =
  let input = overwrite_small () in
  let m = Metric.create () in
  let c = Node_work.overwrite_node ~g:small ~m input in
  Node_work.overwrite_rounds ~c ~tm:(Node_work.timings ()) ~rounds:1 input;
  Alcotest.(check int) "clean run" 0 m.Metric.wrong;
  let key = List.hd (Kv_check.keys c.Node_work.model) in
  Kv_check.acked c.Node_work.model ~key ~value:"tampered";
  ignore (Node_work.restart c ~cold:(lat ()));
  Alcotest.(check int) "tampered read-back fails" 1 m.Metric.wrong

let shape = { Shared_work.keys = 96; hot = 8; ops = 200; max_scan = 50 }

let test_shared_checked () =
  let input = Shared_work.input ~shape ~seed:5 ~domains:2 () in
  let m = Metric.create () in
  let sh = Shared_work.store ~m input in
  let p = Shared_work.pass ~domains:2 ~rounds:1 ~traced:false sh input in
  Shared_work.absorb ~into:m p;
  Alcotest.(check int) "clean pass" 0 m.Metric.wrong;
  Alcotest.(check int) "no failures" 0 m.Metric.failed;
  (* Every key's expected value tampered: each get and each scan is wrong. *)
  let tampered =
    {
      input with
      Shared_work.preload = Array.map (fun (k, v) -> (k, v ^ "!")) input.Shared_work.preload;
    }
  in
  let c = Shared_work.client () in
  Shared_work.run_stream ~slot:0 sh tampered c tampered.Shared_work.streams.(0);
  Alcotest.(check int) "every answer wrong" shape.Shared_work.ops c.Shared_work.m.Metric.wrong

let test_validate_checked () =
  let input = Validate_work.input ~per_profile:3 ~length:40 ~seed:2 () in
  let m = Metric.create () in
  let acc, _ = Validate_work.round ~domains:2 ~traced:false input in
  Validate_work.record m input acc;
  Alcotest.(check int) "clean round" 0 m.Metric.wrong;
  Alcotest.(check int) "every sequence checked" (Validate_work.tasks input) m.Metric.attempted;
  Validate_work.catch_seeded_fault ~domains:2 ~fault:Validate_work.seeded_fault m input;
  Alcotest.(check int) "seeded fault caught" 0 m.Metric.wrong;
  Alcotest.(check bool) "fault disabled again" false (Faults.enabled Validate_work.seeded_fault);
  (* A fault conformance cannot see (a concurrency bug, found only by the
     model checker) must be reported as not caught. *)
  Validate_work.catch_seeded_fault ~domains:2 ~fault:Faults.F11_locator_race m input;
  Alcotest.(check int) "uncaught fault reported" 1 m.Metric.wrong

(* The fault hunt starts at the input's base seed, and [Par] takes only
   31-bit index ranges: every [--seed] must map into one. *)
let test_validate_any_seed () =
  List.iter
    (fun seed ->
      let input = Validate_work.input ~per_profile:1 ~length:40 ~seed () in
      let m = Metric.create () in
      Validate_work.catch_seeded_fault ~domains:1 ~fault:Validate_work.seeded_fault m input;
      Alcotest.(check int) (Printf.sprintf "seed %d: fault caught" seed) 0 m.Metric.wrong)
    [ -1; 65535; 123456789; max_int; min_int ]

let test_validate_failure_counts () =
  let input = Validate_work.input ~per_profile:1 ~seed:2 () in
  let m = Metric.create () in
  Validate_work.record m input
    {
      Validate_work.lat = [];
      bad = [ ("full", 1, "divergence") ];
      crashed = [ ("full", 2, "Not_found") ];
      ops = 0;
    };
  Alcotest.(check int) "a failing sequence is a wrong answer" 1 m.Metric.wrong;
  Alcotest.(check int) "a crashing sequence is a failed operation" 1 m.Metric.failed

(* {2 Exactness} *)

let counts tl =
  List.map (fun name -> (name, Node_work.count tl name)) Node_work.counters
  @ [ ("user_bytes", tl.Node_work.user_bytes) ]

let ingest_tally () =
  let input = Node_work.ingest_input ~g:small ~seed:11 () in
  let tl = Node_work.tally () in
  Node_work.ingest_round ~g:small ~m:(Metric.create ()) ~tr:None ~tl ~tm:(Node_work.timings ())
    input;
  counts tl

let overwrite_tally () =
  let input = overwrite_small () in
  let c = Node_work.overwrite_node ~g:small ~m:(Metric.create ()) input in
  Node_work.overwrite_rounds ~c ~tm:(Node_work.timings ()) ~rounds:2 input;
  counts c.Node_work.tl

let pairs = Alcotest.(list (pair string (float 0.)))

let test_exact () =
  let a = ingest_tally () in
  Alcotest.(check pairs) "ingest counts repeat" a (ingest_tally ());
  Alcotest.(check bool) "ingest wrote" true (List.assoc "disk.bytes_written" a > 0.);
  let b = overwrite_tally () in
  Alcotest.(check pairs) "overwrite counts repeat" b (overwrite_tally ());
  Alcotest.(check bool) "overwrite reclaimed" true (List.assoc "chunk.reclamation" b > 0.)

(* {2 Spans and statistics} *)

let test_spans () =
  let t = Spans.create () in
  Spans.next_request t;
  Spans.span t "outer" (fun () ->
      Spans.span t "inner" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
      Spans.span t "inner" (fun () -> ()));
  let rows = Spans.summarise [ t ] in
  let row name = List.find (fun r -> r.Spans.name = name) rows in
  Alcotest.(check int) "inner calls" 2 (row "inner").Spans.calls;
  let outer = row "outer" and inner = row "inner" in
  Alcotest.(check bool) "self excludes children" true
    (Float.abs (outer.Spans.self_ms -. (outer.Spans.total_ms -. inner.Spans.total_ms)) < 1e-6);
  Spans.write_jsonl "spans.jsonl" [ t ];
  let ic = open_in "spans.jsonl" in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  Alcotest.(check int) "one line per span" 3 (List.length lines);
  Alcotest.(check int) "children name their parent" 2
    (List.length (List.filter (fun l -> contains l "\"parent\":0,") lines))

let test_tail () =
  let a n = Array.init n float_of_int in
  Alcotest.(check (float 0.)) "p99 of 1000" 989. (Stats.tail (a 1000));
  Alcotest.(check (float 0.)) "ten beyond it on 100" 89. (Stats.tail (a 100))

(* {2 Watchdog} *)

let test_watchdog () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.dup2 w Unix.stderr;
    Watchdog.start ~seconds:0.2;
    let i = ref 0 in
    while true do
      incr i;
      Watchdog.doing "stuck loop" !i
    done
  | pid ->
    Unix.close w;
    let _, status = Unix.waitpid [] pid in
    let msg = In_channel.input_all (Unix.in_channel_of_descr r) in
    Alcotest.(check bool) "exits as failed" true (status = Unix.WEXITED Watchdog.expired);
    Alcotest.(check bool) "names the operation" true (contains msg "stuck loop")

let () =
  Alcotest.run "perfbench"
    [
      ("watchdog", [ Alcotest.test_case "deadline names op in flight" `Quick test_watchdog ]);
      ( "checks",
        [
          Alcotest.test_case "node reads" `Quick test_node_reads_checked;
          Alcotest.test_case "ingest read-back" `Quick test_ingest_readback_checked;
          Alcotest.test_case "indeterminate keys" `Quick test_indeterminate_after_failed_put;
          Alcotest.test_case "overwrite" `Quick test_overwrite_checked;
          Alcotest.test_case "read-shared" `Quick test_shared_checked;
          Alcotest.test_case "validate" `Quick test_validate_checked;
          Alcotest.test_case "validate any seed" `Quick test_validate_any_seed;
          Alcotest.test_case "validate failures" `Quick test_validate_failure_counts;
        ] );
      ("exactness", [ Alcotest.test_case "node counts repeat" `Quick test_exact ]);
      ( "trace",
        [
          Alcotest.test_case "spans" `Quick test_spans; Alcotest.test_case "tail" `Quick test_tail;
        ] );
    ]

(* The [validate] workload: the paper's conformance checker
   ([Lfm.Harness]) over the four generator profiles, sharded over domains
   with [Par]. Every round checks the same seed set, derived from the run's
   seed. Every sequence must pass; after the timed phase a seeded Fig. 5
   fault must be caught. *)

module H = Lfm.Harness
module G = Lfm.Gen

let profiles = [| G.Crash_free; G.Crashing; G.Failing; G.Full |]

type input = {
  base : int;  (** first harness seed *)
  per_profile : int;  (** seeds per profile per round *)
  length : int;  (** operations per sequence *)
}

(* The base is a hash of the seed, below 2^30, so any [--seed] (negative
   or large too) keeps the seeded-fault hunt's seeds [base, base + 2000)
   inside the 31-bit index range of [Par]. *)
let input ?(per_profile = 200) ?(length = 60) ~seed () =
  { base = Hashtbl.hash seed land 0x3FFF_FFFF; per_profile; length }

let tasks input = Array.length profiles * input.per_profile

(* Traced runs give each domain its own recorder, created on first use. *)
let recorders : Spans.t list ref = ref []
let recorders_lock = Mutex.create ()

let recorder =
  Domain.DLS.new_key (fun () ->
      let t = Spans.create ~domain:(Domain.self () :> int) () in
      Mutex.protect recorders_lock (fun () -> recorders := t :: !recorders);
      t)

type acc = {
  lat : float list;  (** microseconds per sequence *)
  bad : (string * int * string) list;  (** profile, seed, failure *)
  crashed : (string * int * string) list;  (** profile, seed, exception *)
  ops : int;
}

let empty () = { lat = []; bad = []; crashed = []; ops = 0 }

let merge a b =
  { lat = b.lat @ a.lat; bad = a.bad @ b.bad; crashed = a.crashed @ b.crashed; ops = a.ops + b.ops }

let check ~traced input acc i =
  let profile = profiles.(i / input.per_profile) in
  let seed = input.base + (i mod input.per_profile) in
  let config = H.default_config in
  let tr = if traced then Some (Domain.DLS.get recorder) else None in
  (match tr with Some t -> Spans.next_request t | None -> ());
  let t0 = Clock.now_ns () in
  let ops =
    Spans.wrap tr "lfm.gen" (fun () ->
        let rng = Util.Rng.create (Int64.of_int seed) in
        G.sequence ~rng ~bias:G.default_bias ~profile
          ~page_size:config.H.store_config.Store.Default.disk.Disk.page_size
          ~extent_count:config.H.store_config.Store.Default.disk.Disk.extent_count
          ~length:input.length)
  in
  let outcome = Spans.wrap tr "lfm.check" (fun () -> H.run config ops) in
  let lat = float_of_int (Clock.now_ns () - t0) /. 1e3 in
  (match tr with
  | Some t -> ignore (Spans.span t "lfm.replay" (fun () -> H.replay config ops))
  | None -> ());
  {
    acc with
    lat = lat :: acc.lat;
    bad =
      (match outcome with
      | H.Passed -> acc.bad
      | H.Failed f ->
        (G.profile_name profile, seed, Format.asprintf "%a" H.pp_failure f) :: acc.bad);
    ops = acc.ops + List.length ops;
  }

(* One sequence: generate it from its seed, then check it against the
   reference model. Traced, a third step replays it against the store
   alone, which apportions the check's time between replay and model. A
   sequence whose check raises is a failed operation, named in the
   summary; it does not end the run. *)
let step ~traced input acc i =
  try check ~traced input acc i
  with e ->
    let profile = profiles.(i / input.per_profile) in
    let seed = input.base + (i mod input.per_profile) in
    { acc with crashed = (G.profile_name profile, seed, Printexc.to_string e) :: acc.crashed }

(* One round over the seed set; returns the round's tally and wall time. *)
let round ~domains ~traced input =
  Watchdog.doing "validate: round" 0;
  Clock.timed (fun () ->
      Par.sweep ~domains ~start:0 ~count:(tasks input) ~init:empty ~step:(step ~traced input)
        ~merge ())

let record m input acc =
  m.Metric.attempted <- m.Metric.attempted + tasks input;
  List.iter
    (fun (profile, seed, exn) -> Metric.failure m "%s seed %d raised %s" profile seed exn)
    acc.crashed;
  List.iter
    (fun (profile, seed, failure) ->
      Metric.wrong m "%s seed %d failed: %s" profile seed
        (String.concat " " (String.split_on_char '\n' failure)))
    acc.bad

(* The seeded fault: Fig. 5 fault #1 (an off-by-one in chunk reclamation
   for near-page-size chunks), which the conformance checker finds. It is
   enabled for the hunt only; [Detect.detect] disables it again. *)
let seeded_fault = Faults.F1_reclaim_off_by_one

let catch_seeded_fault ~domains ~fault m input =
  Watchdog.doing "validate: seeded-fault hunt" 0;
  m.Metric.attempted <- m.Metric.attempted + 1;
  let r =
    Lfm.Detect.detect ~domains ~length:input.length ~max_sequences:2000 ~minimize:false
      ~seed:input.base fault
  in
  Faults.disable_all ();
  if not r.Lfm.Detect.found then
    Metric.wrong m "seeded fault %s not caught in %d sequences" (Faults.to_string fault)
      r.Lfm.Detect.sequences

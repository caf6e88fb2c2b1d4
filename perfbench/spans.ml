(* In-memory span recorder for traced runs.

   Spans are recorded from the benchmark's own code around each call it
   makes into a layer's public functions; spans inside the program are a
   later change. One recorder belongs to one domain (no locking): a
   multi-domain workload gives each client domain its own and summarises
   them together. A span holds its name, start, end, parent span and the
   request id, which the spans nested under one request share. *)

type t = {
  domain : int;
  mutable n : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable current : int;  (** innermost open span, -1 when none *)
  mutable req : int;
}

let create ?(domain = 0) () =
  let cap = 4096 in
  {
    domain;
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap (-1);
    reqs = Array.make cap 0;
    current = -1;
    req = 0;
  }

let count t = t.n

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs 0

(* Starts a new request: spans opened from here until the next call share
   its id. *)
let next_request t = t.req <- t.req + 1

let enter t name =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.parents.(i) <- t.current;
  t.reqs.(i) <- t.req;
  t.current <- i;
  t.n <- i + 1;
  t.starts.(i) <- Clock.now_ns ();
  i

let leave t i =
  t.stops.(i) <- Clock.now_ns ();
  t.current <- t.parents.(i)

let span t name f =
  let i = enter t name in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

(* [wrap tr name f] — [f ()], inside a span when tracing. *)
let wrap tr name f = match tr with None -> f () | Some t -> span t name f

(* {2 Summary} *)

type row = {
  name : string;
  calls : int;
  total_ms : float;
  self_ms : float;  (** total minus the time covered by direct children *)
  p50_us : float;
  p99_us : float;
}

let summarise recorders =
  let by_name : (string, int ref * int ref * int ref * Stats.Samples.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun t ->
      let child_ns = Array.make t.n 0 in
      for i = 0 to t.n - 1 do
        let p = t.parents.(i) in
        if p >= 0 then child_ns.(p) <- child_ns.(p) + (t.stops.(i) - t.starts.(i))
      done;
      for i = 0 to t.n - 1 do
        let d = t.stops.(i) - t.starts.(i) in
        let calls, total, self, lat =
          match Hashtbl.find_opt by_name t.names.(i) with
          | Some e -> e
          | None ->
            let e = (ref 0, ref 0, ref 0, Stats.Samples.create ()) in
            Hashtbl.replace by_name t.names.(i) e;
            e
        in
        incr calls;
        total := !total + d;
        self := !self + (d - child_ns.(i));
        Stats.Samples.add lat (float_of_int d /. 1e3)
      done)
    recorders;
  Hashtbl.fold
    (fun name (calls, total, self, lat) acc ->
      {
        name;
        calls = !calls;
        total_ms = float_of_int !total /. 1e6;
        self_ms = float_of_int !self /. 1e6;
        p50_us = Stats.Samples.p50 lat;
        p99_us = Stats.Samples.p99 lat;
      }
      :: acc)
    by_name []
  |> List.sort (fun a b -> compare a.name b.name)

(* Self time of every span whose name starts with [prefix], in ms. *)
let self_ms rows ~prefix =
  List.fold_left
    (fun acc r -> if String.starts_with ~prefix r.name then acc +. r.self_ms else acc)
    0. rows

let pp_table ppf rows =
  Format.fprintf ppf "%-22s %9s %11s %11s %10s %10s@." "span" "calls" "total_ms" "self_ms"
    "p50_us" "p99_us";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %9d %11.2f %11.2f %10.1f %10.1f@." r.name r.calls r.total_ms
        r.self_ms r.p50_us r.p99_us)
    rows

(* One JSON object per span. Times are microseconds since the first span
   of the run; ids are unique across the recorders of one run. *)
let write_jsonl path recorders =
  let origin =
    List.fold_left
      (fun acc t -> if t.n > 0 then min acc t.starts.(0) else acc)
      max_int recorders
  in
  let oc = open_out path in
  let id t i = if i < 0 then -1 else (t.domain * 1_000_000_000) + i in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\
           \"req\":%d,\"domain\":%d}\n"
          (id t i) t.names.(i)
          (float_of_int (t.starts.(i) - origin) /. 1e3)
          (float_of_int (t.stops.(i) - origin) /. 1e3)
          (id t t.parents.(i))
          ((t.domain * 1_000_000_000) + t.reqs.(i))
          t.domain
      done)
    recorders;
  close_out oc

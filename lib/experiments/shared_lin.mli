(** Racing-domain workload over ONE shared store, judged by the offline
    wire-trace audit — half of the [validate --shared] conformance gate
    (the other half is the {!Conc.Conc_shared} model check), the whole
    store-side half of [validate --maint], and the shared arm of E16
    ([validate --trace-audit]).

    N real domains issue a seeded mix of get/put/delete/two-key
    batch/three-key scan/flush against a single {!Store.Shared} whose
    [?trace] tap feeds a {!Tracecheck.Trace.Recorder}, so every operation
    is an invocation/response interval and every drain a [Flush] marker.
    After the domains join, the staging layer is drained and the shared
    view must agree with the underlying sequential store on every key;
    those shared reads are recorded too. The whole history is then
    judged by {!Tracecheck.Audit} against the per-key model (committed
    value plus indeterminate set, consistent scan snapshots).

    The key universe is scaled with the op count so per-key histories
    stay short, and put values are unique per (domain, op), which both
    strengthens the check (a stale read cannot masquerade as a fresh
    one) and prunes the search. *)

type report = {
  domains : int;
  ops_per_domain : int;
  keys : int;
  errors : int;  (** caller-side [Error]s across the racing domains *)
  final_drain_ok : bool;  (** post-join flush succeeded and staging is empty *)
  post_drain_consistent : bool;  (** Shared.get = underlying get for every key *)
  audit : Tracecheck.Audit.report;  (** the recorded history, post-drain reads included *)
  maint : Store.Shared.Maint.stats option;
      (** stats of the racing maintenance domain, when one was attached *)
}

val pp_report : Format.formatter -> report -> unit

(** Zero errors, a non-empty audited history whose verdict is [Valid]
    (never [Truncated] or [Gave_up]), final drain clean, post-drain views
    consistent — and, when a maintenance domain raced the run, zero
    maintenance errors and at least one maintenance flush. *)
val ok : report -> bool

(** [run ?domains ?ops_per_domain ?seed ?maint ()] (defaults 4 domains,
    64 ops each, seed 0) — with [maint = true] (default false) a
    dedicated maintenance domain ({!Store.Shared.Maint}) races the
    foreground domains for the whole run: round-robin narrowed shard
    flushes plus periodic compactions and reclaims, all of which must be
    invisible to the audited history. *)
val run : ?domains:int -> ?ops_per_domain:int -> ?seed:int -> ?maint:bool -> unit -> report

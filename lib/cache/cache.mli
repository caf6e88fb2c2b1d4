(** Page-granular LRU buffer cache over scheduler reads.

    {b Eviction.} Resident pages form an intrusive recency list: a hit or
    an insert moves the page to the head, and an insert that overflows
    [capacity_pages] evicts the tail. Every step is O(1), and recency
    order is victim order: the page evicted is always the least recently
    used one. {!note_reset} probes only the reset extent's own page
    indices and {!invalidate_all} walks the list, so no operation scans
    or sorts the whole cache.

    Reads assemble from cached pages, fetching misses through
    {!Io_sched.read} (where injected IO failures fire — cache hits
    deliberately bypass injection, as a real cache bypasses the disk).
    Mutators must invalidate: {!note_write} after staging an append and
    {!note_reset} after staging an extent reset.

    Fault site #2: the injected defect skips invalidation on reset, so a
    recycled extent can serve stale pre-reset pages from the cache.

    {b Concurrency.} The cache is safe to share across domains: every
    public operation runs under an internal writer-preferring
    {!Conc.Rwlock}, held in write mode even for {!read} because the read
    path mutates (recency moves, miss-path inserts, evictions). In the
    store's global lock order the cache lock is innermost
    (shard < stack < cache) and acquires nothing while held.

    {b Entry lifecycle.} Every per-page mutation is audited against the
    SimpleCacheSM state machine ({!Conc.Cache_sm}): misses claim the
    entry ([Empty -> Reading]), publish on success ([Reading -> Clean])
    or release on failure ([Reading -> Empty]); evictions and
    invalidations are [Clean -> Empty]; write-allocate fills are
    [Empty -> Clean]. This cache never dirties entries (writes
    invalidate), so the [Dirty]/[Writeback] edges are exercised by the
    {!Conc.Conc_shared} model instead. {!transitions_checked} /
    {!transition_violations} expose the audit. *)

type t

(** [create ?capacity_pages ?write_allocate sched] — [write_allocate]
    (default false) inserts written pages into the cache at write time, so
    reads of recently written data always hit. The section 8.3 experiment
    uses it: with a large write-allocating cache the miss path is
    unreachable by the test harness. *)
val create : ?capacity_pages:int -> ?write_allocate:bool -> ?obs:Obs.t -> Io_sched.t -> t

(** True when the cache populates itself on writes. *)
val write_allocate : t -> bool

(** The registry receiving [cache.hit] / [cache.miss] / [cache.eviction] /
    [cache.fill] counters and the [cache.resident_pages] gauge; defaults to
    the scheduler's. *)
val obs : t -> Obs.t

(** [fill t ~extent ~off data] — write-allocate path: insert the written
    bytes' pages. No-op unless [write_allocate]. *)
val fill : t -> extent:int -> off:int -> string -> unit

(** [read t ~extent ~off ~len] — semantics of {!Io_sched.read} plus
    caching. *)
val read : t -> extent:int -> off:int -> len:int -> (string, Io_sched.error) result

(** [note_write t ~extent ~off ~len] invalidates cached pages overlapping
    the written range (a cached partial tail page goes stale when an append
    extends it). *)
val note_write : t -> extent:int -> off:int -> len:int -> unit

(** [note_reset t ~extent] drops every cached page of the extent. *)
val note_reset : t -> extent:int -> unit

(** Drop everything (used on reboot). *)
val invalidate_all : t -> unit

type stats = { hits : int; misses : int; evictions : int }

(** A legacy view over the registry counters; always equal to the
    corresponding {!Obs} values. *)
val stats : t -> stats

(** {2 Lifecycle audit} *)

(** Entry transitions taken (and checked against {!Conc.Cache_sm.legal})
    since creation — the coverage evidence for {!transition_violations}
    being empty. *)
val transitions_checked : t -> int

(** Illegal transitions observed; must be empty. *)
val transition_violations : t -> Conc.Cache_sm.violation list

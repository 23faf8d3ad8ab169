(** Glue: turn walks over paged tables, and ripple's tuple stream, into
    virtual-clock time.

    A simulation charges a virtual clock from the buffer pool of a
    [Wj_storage.Backend.Paged] run: its {!sink} charges each walk's
    abstract steps at RAM time and each page fault the walk took at a
    random I/O.  {!ripple_tracer} charges ripple join's retrievals over
    in-memory tables in closed form.  Running any driver (wander join,
    ripple join) against the virtual clock then reproduces the paper's
    limited-memory setting. *)

type t

val create :
  pool:Wj_storage.Buffer_pool.t ->
  clock:Wj_util.Timer.t ->
  unit ->
  t
(** A simulation charging [clock] for the faults of [pool], the pool the
    run's paged tables read through, at the prices of
    {!Cost_model.default}.  Faults taken before [create] (an
    index build's scans, say) are never charged; the pool's statistics
    must not be reset while the simulation charges.  [clock] must be
    virtual (see {!Wj_util.Timer.virtual_}). *)

val sink : ?metrics:Wj_obs.Metrics.t -> t -> Wj_obs.Sink.t
(** The walker's I/O charge: a sink whose event callback charges each
    walk once, on its [Walk_succeeded] / [Walk_failed] event:
    [cost * ram_access + faults * (random_io - ram_access)], where [cost]
    is the walk's abstract cost and [faults] the pool's misses since the
    previous charge.  Drivers read the clock only between walks, so a
    run stops exactly where a charge per access would stop it.  Pass it
    as the sink of [Wj_core.Online.run_session] (or of any driver built
    on [Wj_core.Walker.prepare]).  When [metrics] is given it also
    refreshes the pool/clock gauges ([pool.hits], [pool.misses],
    [pool.accesses], [pool.resident], [pool.capacity],
    [sim.charged_seconds]) on every [Report] and [Stopped] event. *)

val ripple_tracer :
  clock:Wj_util.Timer.t ->
  unit ->
  pos:int ->
  slot:int ->
  sequential:bool ->
  unit
(** Tracer for {!Wj_ripple.Ripple.run}, charging [clock] per retrieved
    tuple at the prices of {!Cost_model.default}.  A sequentially scanned
    tuple at scan slot [slot] is the first of its storage page when
    [slot mod rows_per_page = 0] and costs one sequential I/O; any other
    costs RAM time.  An index-sampled tuple costs one random I/O.  [clock]
    must be virtual. *)

val charged_seconds : t -> float
(** Total virtual time charged through this simulation's {!sink} since
    creation. *)

//! Morsel-driven parallel execution: the GATHER region controller and the
//! EXCHANGE runtime (bounded queues + hash routing). Guards inside a
//! region count into shared cells ([`super::guard`]), which keeps the
//! paper's §3 semantics global across workers.
//!
//! A `Gather` plan node marks the boundary between the serial plan above
//! and a **parallel region** below. [`GatherOp`] is the region
//! controller: its `open` executes the whole region — serial shared
//! hash-join builds first, then the partitioned stage on scoped worker
//! threads — buffers the region's output batches, and re-emits them.
//! Everything above the `Gather` (final CHECKs, SORT, TEMP, the executor
//! loop) stays byte-for-byte serial. **A region is one pipeline:**
//! materialization points end it, so a lazy `CHECK(TEMP(..))` is decided
//! serially above the boundary and no worker chain ever materializes.
//!
//! **Morsel scheduling.** The stage decomposes its driving scan into
//! `M = ceil(rows / morsel_size)` contiguous **morsels** on a shared
//! [`MorselQueue`]; `min(k, M)` workers claim morsels (own home span
//! first, then work-stealing) and instantiate the stage chain per morsel
//! via the [`PartitionEnv`] machinery, with `(part, parts) = (m, M)`.
//!
//! **Determinism.** Morsels are *contiguous ranges* of the serial scan
//! order, chains are order-preserving, and the controller concatenates
//! task outputs in morsel-index order — so a region reproduces the
//! serial row order (and float accumulation order) exactly, at any
//! thread count and any morsel size. Hash-repartitioned (`Exchange`)
//! stages tag every batch with its source morsel and each consumer
//! replays its input in tag order, which again pins the per-consumer
//! row order to the serial order of the producing stage.
//!
//! **Guard folding (§2.1/§3).** A CHECK or monitor inside a region folds
//! into one shared [`FoldCell`], so its bound is compared against the
//! *global* cardinality:
//!
//! * upper bound: the task whose batch crosses `hi` trips the cell
//!   exactly once and raises with observed `AtLeast(floor(hi)+1)` — the
//!   same observation serial row-at-a-time counting reports;
//! * lower bound / exact evaluation: once every task reaches end of
//!   stream the controller evaluates each CHECK's folded exact count
//!   once, on the main context, and records a single `CheckEvent`.
//!
//! A violation (or any error) sets the region **stop flag** and stops all
//! exchange queues; workers quiesce at the next morsel boundary (blocked
//! producers and consumers wake up), the scope joins, and the controller
//! discards the region's buffered output — no row of a violating step is
//! ever emitted, so no deferred compensation is needed for them — before
//! re-raising the violation to the driver. The violation's observed
//! cardinality feeds re-planning, which may widen, narrow, or drop the
//! region's degree of parallelism.

use crate::build::{build_with_env, pos_of, NodeCursor, PartitionEnv, Signatures};
use crate::context::CheckOutcome;
use crate::morsel::{BatchPool, MorselQueue, RegionDiag, WorkerDiag};
use crate::operators::guard::{FoldCell, Guard};
use crate::operators::monitor::{MonitorSet, SuboptimalitySignal};
use crate::operators::Operator;
use crate::signal::ExecSignal;
use crate::{ExecCtx, OpResult, RowBatch};
use pop_plan::PhysNode;
use pop_storage::Catalog;
use pop_types::{PopError, PopResult};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Messages flowing through an exchange: the producing task's morsel
/// index plus one batch, so the consumer can replay its input in
/// producing-stage serial order.
type Msg = (usize, RowBatch);

/// Messages buffered per queue before producers block (the "bounded
/// channel" of the exchange stage).
const EXCHANGE_QUEUE_CAP: usize = 8;

/// Region-wide coordination: one sticky stop flag. Any worker that
/// raises — violation or error — sets it; every worker polls it at batch
/// and morsel boundaries and every queue wait observes it, so quiescing
/// never deadlocks on a full or empty bounded queue.
#[derive(Default)]
pub(crate) struct RegionShared {
    stop: AtomicBool,
}

impl RegionShared {
    fn set_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

enum Pop {
    Item(Msg),
    Done,
    Stopped,
}

struct QueueState {
    items: VecDeque<Msg>,
    producers_done: usize,
    stopped: bool,
}

/// A bounded MPSC queue with cooperative stop: producers block when the
/// queue is full, the consumer blocks when it is empty, and `stop()`
/// wakes everyone so a quiescing region can never deadlock.
pub(crate) struct BoundedQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    producers: usize,
}

impl BoundedQueue {
    fn new(capacity: usize, producers: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                producers_done: 0,
                stopped: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            producers,
        }
    }

    /// Push a message; `false` when the queue was stopped.
    fn push(&self, msg: Msg) -> bool {
        let mut s = self.state.lock().expect("exchange queue poisoned");
        while s.items.len() >= self.capacity && !s.stopped {
            s = self.not_full.wait(s).expect("exchange queue poisoned");
        }
        if s.stopped {
            return false;
        }
        s.items.push_back(msg);
        self.not_empty.notify_one();
        true
    }

    fn pop(&self) -> Pop {
        let mut s = self.state.lock().expect("exchange queue poisoned");
        loop {
            if s.stopped {
                return Pop::Stopped;
            }
            if let Some(m) = s.items.pop_front() {
                self.not_full.notify_one();
                return Pop::Item(m);
            }
            if s.producers_done >= self.producers {
                return Pop::Done;
            }
            s = self.not_empty.wait(s).expect("exchange queue poisoned");
        }
    }

    fn producer_done(&self) {
        let mut s = self.state.lock().expect("exchange queue poisoned");
        s.producers_done += 1;
        self.not_empty.notify_all();
    }

    fn stop(&self) {
        let mut s = self.state.lock().expect("exchange queue poisoned");
        s.stopped = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// The runtime of one `Exchange` node: one bounded queue per consumer,
/// fed by however many workers the partitioned stage runs.
pub(crate) struct ExchangeState {
    queues: Vec<BoundedQueue>,
}

impl ExchangeState {
    fn new(consumers: usize, producers: usize) -> Self {
        ExchangeState {
            queues: (0..consumers)
                .map(|_| BoundedQueue::new(EXCHANGE_QUEUE_CAP, producers))
                .collect(),
        }
    }

    fn stop_all(&self) {
        for q in &self.queues {
            q.stop();
        }
    }
}

/// Deterministic hash routing of row `i` of `b` to one of `parts`
/// consumers: `Value`'s own hash of the key columns, read through their
/// typed cells (which hash byte for byte like the values they view).
fn route(b: &RowBatch, i: usize, key_pos: &[usize], parts: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in key_pos {
        b.cell(*p, i).hash(&mut h);
    }
    (h.finish() % parts as u64) as usize
}

/// Consumer-side leaf of an exchange: receives this consumer's hash
/// bucket from every producing task, buffers the batches, and replays
/// them sorted by source tag (stable, so a task's batches keep their
/// production order) — all of morsel 0's rows in their original order,
/// then morsel 1's, ... The consumer's input order is therefore a pure
/// function of the plan and the data, never of thread scheduling or
/// morsel size.
pub(crate) struct ExchangeSourceOp {
    state: Arc<ExchangeState>,
    consumer: usize,
    batches: Vec<Msg>,
    pos: usize,
}

impl ExchangeSourceOp {
    pub(crate) fn new(state: Arc<ExchangeState>, consumer: usize) -> Self {
        ExchangeSourceOp {
            state,
            consumer,
            batches: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for ExchangeSourceOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.batches.clear();
        self.pos = 0;
        loop {
            let t0 = Instant::now();
            let popped = self.state.queues[self.consumer].pop();
            ctx.queue_wait_ns += t0.elapsed().as_nanos() as u64;
            match popped {
                Pop::Item(m) => self.batches.push(m),
                Pop::Done => break,
                // Converted to a quiesce by the worker loop (the region
                // stop flag is already set whenever a queue stops).
                Pop::Stopped => return Err(ExecSignal::Error(PopError::Cancelled)),
            }
        }
        self.batches.sort_by_key(|(tag, _)| *tag);
        let total: usize = self.batches.iter().map(|(_, b)| b.live_count()).sum();
        ctx.charge(total as f64 * ctx.model.exchange_row);
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        while self.pos < self.batches.len() {
            let (_, b) = std::mem::take(&mut self.batches[self.pos]);
            self.pos += 1;
            if b.live_count() > 0 {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecCtx) {
        self.batches.clear();
        self.pos = 0;
    }
}

/// Output of one completed task (one morsel chain, or one exchange
/// consumer chain).
struct TaskOut {
    /// Merge key: morsel index, or consumer partition index.
    tag: usize,
    batches: Vec<RowBatch>,
}

/// What one worker thread brought back.
#[derive(Default)]
struct WorkerOut {
    /// Completed output-producing tasks (empty for exchange producers
    /// and quiesced workers).
    tasks: Vec<TaskOut>,
    /// The raised signal, if this worker raised: `(stage_a, tag, signal)`
    /// — the stage flag and tag order raiser selection deterministically.
    raised: Option<(bool, usize, ExecSignal)>,
    work: f64,
    rows_scanned: u64,
    /// Suboptimality signals recorded on this worker's context (at most
    /// one: a fold monitor raises, the worker returns). Folded into the
    /// main context only when this worker's raise is the one selected.
    monitor_signals: Vec<SuboptimalitySignal>,
    diag: WorkerDiag,
}

/// Sets the stop flag (and stops the exchange queues) unless disarmed —
/// armed across the whole worker body so a panic can never leave peers
/// blocked on a queue.
struct Quiesce<'a> {
    shared: &'a RegionShared,
    exchange: Option<&'a ExchangeState>,
    armed: bool,
}

impl Drop for Quiesce<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.set_stop();
            if let Some(x) = self.exchange {
                x.stop_all();
            }
        }
    }
}

/// Everything a worker needs to build its execution context, cloned from
/// the main context before the scope spawns.
struct WorkerSeed {
    catalog: Catalog,
    params: pop_expr::Params,
    model: pop_plan::CostModel,
    checks_enabled: bool,
    force_reopt_at: Option<usize>,
    batch_size: usize,
    guard: pop_guard::Governor,
    faults: Option<pop_guard::FaultInjector>,
    /// Signatures whose monitors already fired in earlier steps — cloned
    /// into every worker so a re-optimized region cannot re-trip on a
    /// subplan whose estimate the feedback path has already corrected.
    monitor_fired: std::collections::HashSet<String>,
}

impl WorkerSeed {
    fn from_ctx(ctx: &ExecCtx) -> Self {
        WorkerSeed {
            catalog: ctx.catalog.clone(),
            params: ctx.params.clone(),
            model: ctx.model.clone(),
            checks_enabled: ctx.checks_enabled,
            force_reopt_at: ctx.force_reopt_at,
            batch_size: ctx.batch_size,
            guard: ctx.guard.clone_shared(),
            faults: ctx.faults.clone(),
            monitor_fired: ctx.monitor_fired.clone(),
        }
    }

    /// Fresh context for one task. Cloning the fault injector per task
    /// keeps chaos runs schedule-independent: every morsel sees the same
    /// injector state no matter which worker claims it.
    fn make_ctx(&self) -> ExecCtx {
        let mut w = ExecCtx::new(
            self.catalog.clone(),
            self.params.clone(),
            self.model.clone(),
        );
        w.checks_enabled = self.checks_enabled;
        w.force_reopt_at = self.force_reopt_at;
        w.batch_size = self.batch_size;
        w.guard = self.guard.clone_shared();
        w.faults.clone_from(&self.faults);
        w.monitor_fired.clone_from(&self.monitor_fired);
        w
    }
}

/// Pre-order walk of the region's **partitioned spine**: the path of
/// operators instantiated once per task. Hash joins contribute their
/// probe side (builds are serial and shared), an exchange contributes its
/// input (the producer stage), and every pass-through contributes its
/// only child. Controller, chain builder and planlint all walk this same
/// path, which is what keeps shared-build and fold-cell indices aligned.
/// Each visit additionally carries the spine node's pre-order index in
/// the **full plan** (`base` is the region root's index, handed down from
/// the serial builder). A hash join's probe child starts after the whole
/// build subtree, matching [`PhysNode::children`] order — the same
/// arithmetic the driver's monitor enumeration and the builder's
/// [`MonitorCursor`] skips perform.
pub(crate) fn visit_spine_indexed<'a>(
    node: &'a PhysNode,
    base: usize,
    f: &mut impl FnMut(&'a PhysNode, usize),
) {
    f(node, base);
    match node {
        PhysNode::Hsjn { build, probe, .. } => {
            visit_spine_indexed(probe, base + 1 + build.node_count(), f);
        }
        PhysNode::Exchange { input, .. } => visit_spine_indexed(input, base + 1, f),
        PhysNode::Nljn { outer, .. } => visit_spine_indexed(outer, base + 1, f),
        _ => {
            let ch = node.children();
            if ch.len() == 1 {
                visit_spine_indexed(ch[0], base + 1, f);
            }
        }
    }
}

/// Base-table row count of the region's driving scan — the denominator
/// of the morsel count. A spine that does not bottom out in a base scan
/// has nothing to decompose into morsels: an invalid (hand-built) plan.
fn driving_scan_rows(region: &PhysNode, catalog: &Catalog) -> PopResult<usize> {
    let mut node = region;
    loop {
        match node {
            PhysNode::TableScan { table, .. } | PhysNode::IndexRangeScan { table, .. } => {
                return Ok(catalog.table(table)?.row_count());
            }
            PhysNode::Hsjn { probe, .. } => node = probe,
            other => match other.children()[..] {
                [only] => node = only,
                _ => {
                    return Err(PopError::InvalidPlan(format!(
                        "GATHER region is driven by {}, not a base-table scan",
                        other.name()
                    )))
                }
            },
        }
    }
}

/// The region controller. `open` runs the entire region to completion
/// (or violation); `next_batch` re-emits the buffered output batches.
///
/// `materialized_count` deliberately stays `None`: a CHECK directly above
/// a `Gather` must count the gathered stream like any pipeline check, not
/// take the materialized fast path — that keeps its observations
/// identical to the serial plan's.
pub struct GatherOp {
    region: PhysNode,
    parts: usize,
    catalog: Catalog,
    signatures: Signatures,
    /// Monitors falling inside the region, keyed by full-plan pre-order
    /// index (the serial builder's enumeration). Worker-built nodes fold
    /// into shared [`FoldCell`]s; the serial build side of spine hash
    /// joins is monitored by locally-counting guards during
    /// [`GatherOp::prepare`].
    region_monitors: MonitorSet,
    /// Full-plan pre-order index of the region root (the `Gather`'s own
    /// index plus one).
    region_base: usize,
    batches: Vec<RowBatch>,
    pos: usize,
    opened: bool,
}

impl GatherOp {
    /// Create a gather over `region`, planned at `parts` degree of
    /// parallelism. `region_monitors` holds the suboptimality monitors
    /// whose nodes fall inside the region (empty when monitoring is off),
    /// keyed by full-plan pre-order index starting at `region_base`.
    pub fn new(
        region: PhysNode,
        parts: usize,
        catalog: Catalog,
        signatures: Signatures,
        region_monitors: MonitorSet,
        region_base: usize,
    ) -> Self {
        GatherOp {
            region,
            parts: parts.max(1),
            catalog,
            signatures,
            region_monitors,
            region_base,
            batches: Vec::new(),
            pos: 0,
            opened: false,
        }
    }

    /// Serially execute the build side of every spine hash join, in spine
    /// order, charging the main context (one build, shared by all
    /// partition probes), then register one shared cell per guarded node
    /// the workers will build. Build subtrees carry locally-counting
    /// monitors instead — they run once, on the main context, so
    /// per-instance counting is exact there.
    fn prepare(&self, ctx: &mut ExecCtx) -> OpResult<Prepared<'_>> {
        let mut hsjns: Vec<(&PhysNode, usize)> = Vec::new();
        let mut folds: Vec<(usize, Arc<FoldCell>)> = Vec::new();
        let mut exchange: Option<&PhysNode> = None;
        let mut above_builds = 0usize;
        let mut stage_base = self.region_base;
        visit_spine_indexed(&self.region, self.region_base, &mut |n, idx| match n {
            PhysNode::Exchange { .. } if exchange.is_none() => {
                exchange = Some(n);
                above_builds = hsjns.len();
                stage_base = idx + 1;
            }
            PhysNode::Hsjn { .. } => hsjns.push((n, idx)),
            PhysNode::Check { spec, .. } if spec.fold => {
                let cell = FoldCell::new(Guard::check(spec.clone()));
                folds.push((idx, Arc::new(cell)));
            }
            _ => {}
        });
        let mut builds = Vec::with_capacity(hsjns.len());
        // Pre-order index ranges of the serially-built subtrees.
        let mut serial: Vec<std::ops::Range<usize>> = Vec::new();
        for (node, idx) in hsjns {
            let PhysNode::Hsjn {
                build, build_keys, ..
            } = node
            else {
                unreachable!("collected non-HSJN spine node");
            };
            // The build subtree's pre-order indices start right after the
            // join's own.
            serial.push(idx + 1..idx + 1 + build.node_count());
            let cur = NodeCursor::at(Some(&self.region_monitors), idx + 1);
            let mut op = build_with_env(build, &self.catalog, &self.signatures, None, &cur)?;
            let bpos = build_keys
                .iter()
                .map(|k| pos_of(&build.props().layout, *k))
                .collect::<Result<Vec<_>, _>>()?;
            let harvest = crate::build::harvest_info(build, &self.signatures);
            op.open(ctx)?;
            let state =
                crate::operators::joins::run_hash_build(op.as_mut(), &bpos, harvest.as_ref(), ctx);
            op.close(ctx);
            builds.push(Arc::new(state?));
        }
        // Monitor cells for every worker-built node, created in ascending
        // index order so the lying-monitor fault hook consumes its
        // occurrences deterministically; fold-check cells go in last (a
        // CHECK node is guarded by its check alone).
        let mut monitored: Vec<_> = self
            .region_monitors
            .specs
            .iter()
            .filter(|(i, _)| !serial.iter().any(|r| r.contains(i)))
            .collect();
        monitored.sort_by_key(|(i, _)| **i);
        let mut cells: HashMap<usize, Arc<FoldCell>> = monitored
            .into_iter()
            .map(|(i, m)| {
                let mut guard = Guard::monitor(m.clone());
                guard.rearm(ctx);
                (*i, Arc::new(FoldCell::new(guard)))
            })
            .collect();
        cells.extend(folds.iter().cloned());
        Ok(Prepared {
            builds,
            folds: folds.into_iter().map(|(_, c)| c).collect(),
            cells: Arc::new(cells),
            exchange,
            above_builds,
            stage_base,
        })
    }
}

/// The region's shared state, set up serially by [`GatherOp::prepare`].
struct Prepared<'a> {
    /// Shared hash-join builds, in spine pre-order.
    builds: Vec<Arc<crate::operators::joins::BuildState>>,
    /// The spine's fold-check cells, in spine pre-order (root to leaf).
    folds: Vec<Arc<FoldCell>>,
    /// Every shared guard cell — fold checks and monitors — keyed by the
    /// guarded node's full-plan pre-order index.
    cells: Arc<HashMap<usize, Arc<FoldCell>>>,
    /// The exchange node, if the region repartitions, with the number of
    /// builds belonging to the consumer stage above it.
    exchange: Option<&'a PhysNode>,
    above_builds: usize,
    /// Full-plan pre-order index of the partitioned stage's root.
    stage_base: usize,
}

/// Run one task chain to end of stream, folding batches into the given
/// sink. Publishes locally-counted work to the shared governor ledger at
/// every batch boundary so global budgets see all workers.
fn run_chain(
    mut op: Box<dyn Operator>,
    wctx: &mut ExecCtx,
    shared: &RegionShared,
    mut on_batch: impl FnMut(&mut ExecCtx, RowBatch) -> Result<(), ExecSignal>,
) -> Option<ExecSignal> {
    let mut published = 0.0;
    let publish = |wctx: &mut ExecCtx, published: &mut f64| {
        wctx.guard.publish_work(wctx.work - *published);
        *published = wctx.work;
    };
    let raised = (|| {
        if let Err(sig) = op.open(wctx) {
            return Some(sig);
        }
        loop {
            if shared.stopped() {
                return None;
            }
            match op.next_batch(wctx) {
                Ok(Some(b)) => {
                    if let Err(sig) = on_batch(wctx, b) {
                        return Some(sig);
                    }
                    publish(wctx, &mut published);
                    // Tick with 0 local: everything published already.
                    if let Err(e) = wctx.guard.tick(wctx.work - published) {
                        return Some(ExecSignal::Error(e));
                    }
                }
                Ok(None) => return None,
                Err(sig) => return Some(sig),
            }
        }
    })();
    op.close(wctx);
    publish(wctx, &mut published);
    raised
}

impl Operator for GatherOp {
    fn open(&mut self, ctx: &mut ExecCtx) -> OpResult<()> {
        self.batches.clear();
        self.pos = 0;
        self.opened = true;
        let parts = self.parts;
        let region_start_work = ctx.work;
        let m_total = driving_scan_rows(&self.region, &self.catalog)?
            .div_ceil(ctx.morsel_size.max(1))
            .max(1);
        let w = parts.min(m_total);

        // Phase 1 (serial): shared hash-join builds, on the main context.
        let Prepared {
            builds,
            folds,
            cells,
            exchange: exchange_node,
            above_builds,
            stage_base,
        } = self.prepare(ctx)?;
        let release_builds = |ctx: &mut ExecCtx| {
            for b in &builds {
                ctx.guard_release(b.reserved);
            }
        };

        // Stage layout: the partitioned stage root (below the exchange,
        // or the whole region) plus routing keys if the region
        // repartitions.
        let producer_cfg = match exchange_node {
            Some(PhysNode::Exchange { input, keys, .. }) => {
                let key_pos = keys
                    .iter()
                    .map(|k| pos_of(&input.props().layout, *k))
                    .collect::<Result<Vec<_>, _>>()?;
                Some((input.as_ref(), key_pos))
            }
            _ => None,
        };
        let stage_root: &PhysNode = producer_cfg.as_ref().map_or(&self.region, |(r, _)| *r);

        // Phase 2 (parallel): the partitioned stage as a morsel pool, plus
        // fixed consumer chains above any exchange, under one scoped
        // worker set.
        let shared = RegionShared::default();
        let seed = WorkerSeed::from_ctx(ctx);
        // Base work published so worker ticks compare the true global
        // counter; withdrawn below once worker work folds back in.
        seed.guard.publish_work(region_start_work);
        let exchange_state = exchange_node.map(|_| Arc::new(ExchangeState::new(parts, w)));
        let queue = MorselQueue::new(m_total, w);

        let mut outcomes: Vec<WorkerOut> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            let shared = &shared;
            let seed = &seed;
            let queue = &queue;
            let builds = &builds;
            let cells = &cells;
            let region_base = self.region_base;
            let region = &self.region;
            let catalog = &self.catalog;
            let signatures = &self.signatures;
            let exchange_state = exchange_state.as_ref();
            let xref: Option<&ExchangeState> = exchange_state.map(std::convert::AsRef::as_ref);
            let key_pos: Option<&[usize]> = producer_cfg.as_ref().map(|(_, k)| k.as_slice());
            // Stage-A shared state: everything below the exchange, or the
            // whole spine when the region does not repartition.
            let stage_builds = &builds[above_builds..];

            // min(k, M) stage workers pulling tasks from the morsel queue.
            for widx in 0..w {
                handles.push(s.spawn(move || {
                    let mut quiesce = Quiesce {
                        shared,
                        exchange: xref,
                        armed: true,
                    };
                    let mut out = WorkerOut::default();
                    let mut pool = BatchPool::default();
                    loop {
                        if shared.stopped() {
                            break; // quiesce at the morsel boundary
                        }
                        let Some((m, stolen)) = queue.claim(widx) else {
                            break;
                        };
                        out.diag.morsels += 1;
                        if stolen {
                            out.diag.steals += 1;
                        }
                        let t0 = Instant::now();
                        let mut wctx = seed.make_ctx();
                        let env = PartitionEnv::new(
                            m,
                            m_total,
                            stage_builds.to_vec(),
                            Arc::clone(cells),
                            None,
                        );
                        let cur = NodeCursor::at(None, stage_base);
                        let op =
                            match build_with_env(stage_root, catalog, signatures, Some(&env), &cur)
                            {
                                Ok(op) => op,
                                Err(e) => {
                                    out.raised = Some((true, m, ExecSignal::Error(e)));
                                    return out; // quiesce guard stops the region
                                }
                            };
                        // Producer task: route rows by hash into
                        // per-consumer bucket batches, allocation-free per
                        // row (routed-out input batches recycle through
                        // the pool as future buckets); an output task just
                        // collects the chain's batches.
                        let raised = if let (Some(xstate), Some(keys)) = (xref, key_pos) {
                            let mut buckets: Vec<RowBatch> =
                                (0..parts).map(|_| pool.get()).collect();
                            let mut raised = run_chain(op, &mut wctx, shared, |wctx, b| {
                                wctx.charge(b.live_count() as f64 * wctx.model.exchange_row);
                                for i in b.live_indices() {
                                    buckets[route(&b, i, keys, parts)].push_from(&b, i);
                                }
                                for (c, bucket) in buckets.iter_mut().enumerate() {
                                    if bucket.len() >= wctx.batch_size {
                                        let full = std::mem::replace(bucket, RowBatch::new());
                                        let t = Instant::now();
                                        let ok = xstate.queues[c].push((m, full));
                                        wctx.queue_wait_ns += t.elapsed().as_nanos() as u64;
                                        if !ok {
                                            // Queue stopped: quiesce quietly.
                                            return Err(ExecSignal::Error(PopError::Cancelled));
                                        }
                                    }
                                }
                                pool.put(b);
                                Ok(())
                            });
                            if raised.is_none() {
                                for (c, bucket) in buckets.into_iter().enumerate() {
                                    if bucket.is_empty() {
                                        pool.put(bucket);
                                        continue;
                                    }
                                    let t = Instant::now();
                                    let ok = xstate.queues[c].push((m, bucket));
                                    wctx.queue_wait_ns += t.elapsed().as_nanos() as u64;
                                    if !ok {
                                        raised = Some(ExecSignal::Error(PopError::Cancelled));
                                        break;
                                    }
                                }
                            }
                            raised
                        } else {
                            let mut batches = Vec::new();
                            let raised = run_chain(op, &mut wctx, shared, |_wctx, b| {
                                batches.push(b);
                                Ok(())
                            });
                            if raised.is_none() {
                                out.tasks.push(TaskOut { tag: m, batches });
                            }
                            raised
                        };
                        out.diag.queue_wait_ns += wctx.queue_wait_ns;
                        out.diag.compute_ns +=
                            (t0.elapsed().as_nanos() as u64).saturating_sub(wctx.queue_wait_ns);
                        out.work += wctx.work;
                        out.rows_scanned += wctx.rows_scanned;
                        out.monitor_signals.append(&mut wctx.monitor_signals);
                        if let Some(sig) = raised {
                            out.raised = Some((true, m, sig));
                            return out; // quiesce guard stops the region
                        }
                    }
                    if let Some(xstate) = xref {
                        for q in &xstate.queues {
                            q.producer_done();
                        }
                    }
                    quiesce.armed = false;
                    out
                }));
            }

            // k fixed consumer chains above the exchange, if any.
            if let Some(xarc) = exchange_state {
                for part in 0..parts {
                    handles.push(s.spawn(move || {
                        let mut quiesce = Quiesce {
                            shared,
                            exchange: Some(xarc.as_ref()),
                            armed: true,
                        };
                        let mut out = WorkerOut::default();
                        out.diag.morsels = 1;
                        let t0 = Instant::now();
                        let mut wctx = seed.make_ctx();
                        let env = PartitionEnv::new(
                            part,
                            parts,
                            builds[..above_builds].to_vec(),
                            Arc::clone(cells),
                            Some(Arc::clone(xarc)),
                        );
                        let cur = NodeCursor::at(None, region_base);
                        let op = match build_with_env(region, catalog, signatures, Some(&env), &cur)
                        {
                            Ok(op) => op,
                            Err(e) => {
                                out.raised = Some((false, part, ExecSignal::Error(e)));
                                return out;
                            }
                        };
                        let mut batches = Vec::new();
                        let raised = run_chain(op, &mut wctx, shared, |_wctx, b| {
                            batches.push(b);
                            Ok(())
                        });
                        out.diag.queue_wait_ns = wctx.queue_wait_ns;
                        out.diag.compute_ns =
                            (t0.elapsed().as_nanos() as u64).saturating_sub(wctx.queue_wait_ns);
                        out.work = wctx.work;
                        out.rows_scanned = wctx.rows_scanned;
                        out.monitor_signals.append(&mut wctx.monitor_signals);
                        if let Some(sig) = raised {
                            out.raised = Some((false, part, sig));
                        } else {
                            out.tasks.push(TaskOut { tag: part, batches });
                            quiesce.armed = false;
                        }
                        out
                    }));
                }
            }

            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| WorkerOut {
                        raised: Some((
                            false,
                            usize::MAX,
                            ExecSignal::Error(PopError::Execution(
                                "partition worker panicked".into(),
                            )),
                        )),
                        ..WorkerOut::default()
                    })
                })
                .collect()
        });

        // Fold instrumentation back in deterministic worker order.
        let mut folded_work = 0.0;
        for o in &outcomes {
            folded_work += o.work;
            ctx.rows_scanned += o.rows_scanned;
        }
        ctx.work += folded_work;
        // Workers published their work; the controller's counter now
        // carries it, so withdraw the published total (plus the base).
        seed.guard.withdraw_work(region_start_work + folded_work);
        ctx.region_diags.push(RegionDiag {
            dop: parts,
            morsels: m_total,
            workers: outcomes.iter().map(|o| o.diag.clone()).collect(),
        });

        // Raised-signal priority: a genuine re-optimization beats errors;
        // a real error beats the Cancelled artifacts of quiescing. Ties
        // break toward the partitioned stage, then the lowest tag — the
        // serial-stream-order raiser, independent of scheduling.
        let rank = |s: &ExecSignal| match s {
            ExecSignal::Reopt(_) => 0,
            ExecSignal::Error(PopError::Cancelled) => 2,
            ExecSignal::Error(_) => 1,
        };
        let mut raised: Option<(bool, usize, ExecSignal)> = None;
        let mut raiser_signals: Vec<SuboptimalitySignal> = Vec::new();
        for o in &mut outcomes {
            let Some((sa, tag, sig)) = o.raised.take() else {
                continue;
            };
            let better = match &raised {
                None => true,
                Some((psa, ptag, psig)) => (rank(&sig), !sa, tag) < (rank(psig), !*psa, *ptag),
            };
            if better {
                raised = Some((sa, tag, sig));
                raiser_signals = std::mem::take(&mut o.monitor_signals);
            }
        }
        if let Some((_, _, sig)) = raised {
            release_builds(ctx);
            if let ExecSignal::Reopt(v) = &sig {
                if v.monitor {
                    // A monitor cell tripped on a worker context: replay
                    // the selected raiser's signal onto the main context
                    // (its observation is derived from the trip bound, so
                    // it is the same whichever worker won the latch).
                    for mut s in raiser_signals {
                        ctx.monitor_fired.insert(s.signature.clone());
                        s.at_work = ctx.work;
                        ctx.monitor_signals.push(s);
                    }
                    return Err(sig);
                }
                // Record the single, global event of the violated fold.
                // Folds below it are pipelined and still mid-stream, as in
                // the serial plan, so they record nothing.
                if let Some(cell) = folds.iter().find(|c| c.guard.id() == v.check_id) {
                    cell.guard
                        .record(ctx, CheckOutcome::Violated, v.observed, region_start_work);
                }
            }
            // No row of this step is emitted: the buffered task output
            // is discarded wholesale, so ECDC compensation state is
            // untouched by the violating step.
            return Err(sig);
        }

        // All tasks done: evaluate each fold's exact global count once,
        // leaf-to-root — the order in which serial end-of-stream
        // evaluation unwinds (an inner check sees its end of stream
        // before the checks above it do).
        for cell in folds.iter().rev() {
            if let Err(sig) = cell
                .guard
                .decide_exact(cell.total(), region_start_work, ctx)
            {
                release_builds(ctx);
                return Err(sig);
            }
        }

        release_builds(ctx);
        // Merge task outputs in tag order: morsel order for the
        // partitioned stage, consumer order for exchange regions —
        // reproducing the producing stage's serial row order.
        let mut tasks: Vec<TaskOut> = outcomes.into_iter().flat_map(|o| o.tasks).collect();
        tasks.sort_by_key(|t| t.tag);
        let mut total_live = 0usize;
        let mut batches = Vec::new();
        for t in tasks {
            for b in t.batches {
                total_live += b.live_count();
                batches.push(b);
            }
        }
        ctx.charge(total_live as f64 * ctx.model.exchange_row);
        self.batches = batches;
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &mut ExecCtx) -> OpResult<Option<RowBatch>> {
        if !self.opened {
            return Err(super::protocol_err("gather next_batch() before open()"));
        }
        while self.pos < self.batches.len() {
            let b = std::mem::take(&mut self.batches[self.pos]);
            self.pos += 1;
            if b.live_count() > 0 {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecCtx) {
        self.batches.clear();
        self.pos = 0;
        self.opened = false;
    }
}

crate::operators::opaque_debug!(GatherOp, ExchangeSourceOp);

#[cfg(test)]
mod tests {
    use super::*;
    use pop_plan::{CostModel, PlanProps, TableSet};
    use pop_types::Value;

    /// A hand-built region with no base scan to decompose into morsels is
    /// a typed error at `open`, never a silent fallback.
    #[test]
    fn region_without_a_driving_scan_is_an_invalid_plan() {
        let region = PhysNode::MvScan {
            mv_name: "mv".into(),
            signature: "sig".into(),
            props: PlanProps::leaf(TableSet::single(0), 10.0, 10.0, vec![]),
        };
        let cat = Catalog::new();
        let mut ctx = ExecCtx::new(cat.clone(), pop_expr::Params::none(), CostModel::default());
        let mut gather = GatherOp::new(region, 4, cat, Signatures::new(), MonitorSet::default(), 1);
        match gather.open(&mut ctx) {
            Err(ExecSignal::Error(PopError::InvalidPlan(msg))) => {
                assert!(msg.contains("MVSCAN"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {:?}", other.err()),
        }
        assert!(ctx.region_diags.is_empty());
    }

    /// The controller builds a spine hash join once and every worker's
    /// probe shares it — and so does the build's harvest, registered with
    /// the main context in canonical column order.
    #[test]
    fn shared_build_is_harvested_once_from_the_region() {
        use crate::build::Subplan;
        use pop_plan::LayoutCol;
        use pop_types::{ColId, DataType, Schema};
        let cat = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rows = |n: i64, m: i64| (0..n).map(move |i| vec![Value::Int(i % m), Value::Int(i)]);
        cat.create_table("b", schema.clone(), rows(6, 3).collect())
            .unwrap();
        cat.create_table("p", schema, rows(40, 4).collect())
            .unwrap();
        let scan = |qidx: usize, table: &str, cols: [usize; 2]| PhysNode::TableScan {
            qidx,
            table: table.into(),
            pred: None,
            props: PlanProps::leaf(
                TableSet::single(qidx),
                1.0,
                1.0,
                cols.map(|c| LayoutCol::Base(ColId::new(qidx, c))).to_vec(),
            ),
        };
        // The build emits (v, k): canonical order (k, v) is a permutation.
        let region = PhysNode::Hsjn {
            build: Box::new(scan(0, "b", [1, 0])),
            probe: Box::new(scan(1, "p", [0, 1])),
            build_keys: vec![ColId::new(0, 0)],
            probe_keys: vec![ColId::new(1, 0)],
            props: PlanProps::leaf(TableSet::from_iter([0, 1]), 1.0, 1.0, vec![]),
        };
        let mut signatures = Signatures::new();
        signatures.insert(
            TableSet::single(0).mask(),
            Subplan {
                signature: "sig-b".into(),
                layout: vec![ColId::new(0, 0), ColId::new(0, 1)],
            },
        );
        let mut ctx = ExecCtx::new(cat.clone(), pop_expr::Params::none(), CostModel::default());
        ctx.morsel_size = 8; // five morsels over two workers
        let mut gather = GatherOp::new(region, 2, cat, signatures, MonitorSet::default(), 1);
        gather.open(&mut ctx).unwrap();
        let mut joined = 0;
        while let Some(b) = gather.next_batch(&mut ctx).unwrap() {
            for i in b.live_indices() {
                let r = b.row_at(i);
                assert_eq!(r[1], r[2], "build k = probe k in {r:?}");
                joined += 1;
            }
        }
        gather.close(&mut ctx);
        // Probe keys 0..4 × 10 rows each; build keys 0..3 × 2 rows each.
        assert_eq!(joined, 3 * 10 * 2);
        assert_eq!(ctx.harvests.len(), 1);
        let (rows, lineage) = ctx.harvests[0].to_rows();
        let expect: Vec<Vec<Value>> = (0..6)
            .map(|i| vec![Value::Int(i % 3), Value::Int(i)])
            .collect();
        assert_eq!(rows, expect);
        assert_eq!(lineage.len(), 6);
    }
}

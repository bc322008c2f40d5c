//! Per-thread sharded counters, declared in one table.
//!
//! Every thread that bumps a counter gets its own cache line of atomics,
//! registered once in a global cell list. Totals are the sum over cells;
//! the `Arc`s in the list keep a cell's counts alive after its thread
//! exits (the `qt_dist` thread worlds spawn and join short-lived OS
//! threads whose traffic must survive into the report).
//!
//! Each counter is one row of the `counter_table!` invocation below: its
//! [`Counter`] variant and doc string, its metric name, and the report
//! block and key it appears under. The series sample order and codec,
//! the Prometheus text and the report's counter blocks all iterate
//! `TABLE`, so adding a counter is adding a row. A bump is one relaxed
//! `fetch_add` at the compile-time index `Counter as usize`.
//!
//! The flop counters here are the backing store for
//! `qt_linalg::flops::{add_flops, add_gemm_flops_batched, …}` — there is a
//! single source of truth for flop accounting across the workspace.

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a counter appears in the `TelemetryReport` JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Block {
    /// Not in the report (series and Prometheus only, or read through
    /// [`gemm_split`]).
    Unreported,
    /// A top-level key of the report.
    Top,
    /// The `health` block.
    Health,
    /// The `elasticity` block.
    Elasticity,
    /// The counter fields of the `balance` block.
    Balance,
    /// The counter fields of the `kernel_selection` block.
    KernelSelection,
    /// The `service` block.
    Service,
    /// The `corpus` block.
    Corpus,
    /// The `journal` block. Its counter is not sampled into the series and
    /// is rendered after the series metrics.
    Journal,
}

/// One row of the counter table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Row {
    /// The counter this row declares.
    pub(crate) counter: Counter,
    /// Metric name in the series and the Prometheus text (`<block>.<field>`,
    /// rendered as `qt_<block>_<field>`); `None` for counters read only
    /// through the report or [`gemm_split`].
    pub(crate) name: Option<&'static str>,
    /// The report block the counter appears in, under `key`.
    pub(crate) block: Block,
    /// The counter's key inside `block` (empty when unreported).
    pub(crate) key: &'static str,
    /// The counter holds nanoseconds; the report shows seconds.
    pub(crate) secs: bool,
}

impl Row {
    /// Is the counter sampled into the metrics series?
    pub(crate) fn sampled(&self) -> bool {
        self.name.is_some() && self.block != Block::Journal
    }
}

// Row syntax, after the row's doc comment:
// `Variant ["metric.name"] [=> Block "key" [as secs]];`
// where `as secs` marks a nanosecond counter the report shows in seconds.
macro_rules! counter_table {
    (@name) => { None };
    (@name $name:literal) => { Some($name) };
    (@block) => { (Block::Unreported, "") };
    (@block $block:ident $key:literal) => { (Block::$block, $key) };
    (@secs) => { false };
    (@secs secs) => { true };
    ($(
        $(#[doc = $doc:literal])+
        $id:ident $($name:literal)? $(=> $block:ident $key:literal $(as $secs:ident)?)?;
    )+) => {
        /// A telemetry counter; its discriminant is its slot in every shard.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $id,)+
        }

        /// Number of counters.
        pub(crate) const N_COUNTERS: usize = [$(stringify!($id)),+].len();

        /// Every counter's row, indexed by `Counter as usize`.
        pub(crate) const TABLE: [Row; N_COUNTERS] = [$(Row {
            counter: Counter::$id,
            name: counter_table!(@name $($name)?),
            block: counter_table!(@block $($block $key)?).0,
            key: counter_table!(@block $($block $key)?).1,
            secs: counter_table!(@secs $($($secs)?)?),
        },)+];
    };
}

// Service and corpus rows list each attempt-side counter before its
// settlement (admitted before completed/failed, warm starts before
// fallbacks, scenarios run before matched/mismatched): `Counts::read`
// relies on that order.
counter_table! {
    /// Real floating-point operations (8 per complex multiply-add).
    Flops "flops" => Top "total_flops";
    /// Communicated bytes.
    Bytes "bytes" => Top "total_bytes";
    /// Nanoseconds in blocked-GEMM operand packing (the `gemm.pack` phase).
    GemmPackNs;
    /// Timed blocked-GEMM packing sections.
    GemmPackCalls;
    /// Nanoseconds in the blocked-GEMM macro kernel (the `gemm.kernel` phase).
    GemmKernelNs;
    /// Timed blocked-GEMM macro-kernel sections.
    GemmKernelCalls;
    /// Heap bytes allocated (counting global allocator only).
    AllocBytes "alloc.bytes";
    /// Heap allocations performed (counting global allocator only).
    AllocCount "alloc.count";
    /// Workspace-arena pool misses: a `take` that fell back to a fresh
    /// heap allocation.
    WsFresh "ws.fresh";
    /// Boundary self-energies served from the `BoundaryCache`.
    BoundaryHits "boundary.cache_hits" => Top "boundary_cache_hits";
    /// Boundary self-energies computed by full Sancho-Rubio decimation
    /// (cache miss or bypass).
    BoundaryMisses "boundary.cache_misses" => Top "boundary_cache_misses";
    /// `(E, kz)` / `(ω, qz)` grid points quarantined after failing a
    /// numerical-health check instead of poisoning the iteration.
    HealthQuarantined "health.quarantined_points" => Health "quarantined_points";
    /// Eta-bump regularized retries of the Sancho-Rubio decimation.
    HealthEtaRetries "health.eta_retries" => Health "eta_retries";
    /// Adaptive-mixing backoffs: the SCF residual grew and the mixing
    /// factor was halved.
    HealthMixingBackoffs "health.mixing_backoffs" => Health "mixing_backoffs";
    /// Communication retries: timed-out or corrupt-and-discarded receives
    /// and sender-side retransmissions.
    HealthCommRetries "health.comm_retries" => Health "comm_retries";
    /// SCF checkpoints written to disk.
    HealthCheckpointWrites "health.checkpoint_writes" => Health "checkpoint_writes";
    /// Ranks declared permanently dead by the failure detector or the kill
    /// schedule.
    ElasticRankDeaths "elastic.rank_deaths" => Elasticity "rank_deaths";
    /// Receive polls that expired while the failure detector watched a
    /// peer's liveness epoch.
    ElasticHeartbeatTimeouts "elastic.heartbeat_timeouts" => Elasticity "heartbeat_timeouts";
    /// Survivor re-tiling passes of the CA decomposition.
    ElasticRetileEvents "elastic.retile_events" => Elasticity "retile_events";
    /// Tiles migrated off dead ranks during re-tiling.
    ElasticMigratedTiles "elastic.migrated_tiles" => Elasticity "migrated_tiles";
    /// Work-steal requests sent by idle ranks.
    BalanceStealRequests "balance.steal_requests" => Balance "steal_requests";
    /// Work units granted to thieves by stragglers.
    BalanceStolenUnits "balance.stolen_units" => Balance "stolen_units";
    /// Iteration-to-iteration re-partitioning passes of the adaptive tiling.
    BalanceRebalanceEvents "balance.rebalance_events" => Balance "rebalance_events";
    /// Units whose owner changed in a re-partitioning pass.
    BalanceMovedUnits "balance.moved_units" => Balance "moved_units";
    /// Journal events overwritten by a full flight-recorder ring before
    /// they could be drained.
    JournalDropped "journal.dropped" => Journal "dropped";
    /// Kernel-selector decisions that routed a coupling product through
    /// the CSR sparse kernels.
    KernelSparseSelected "kernel.sparse_selected" => KernelSelection "sparse_selected";
    /// Kernel-selector decisions that kept a coupling product on the
    /// blocked dense GEMM.
    KernelDenseSelected "kernel.dense_selected" => KernelSelection "dense_selected";
    /// Hysteresis flips of a sticky per-block kernel choice.
    KernelSwitches "kernel.switches" => KernelSelection "switches";
    /// Real flops executed by the CSR sparse kernels (also counted in
    /// [`Counter::Flops`]; this isolates the sparse share).
    KernelSparseFlops "kernel.sparse_flops" => KernelSelection "sparse_flops";
    /// Bytes streamed by the CSR sparse kernels under their minimal
    /// traffic model: CSR storage read once plus the dense panels touched.
    KernelSparseBytes "kernel.sparse_bytes" => KernelSelection "sparse_bytes";
    /// Real flops of selector-governed coupling products run densely.
    KernelDenseFlops "kernel.dense_flops" => KernelSelection "dense_flops";
    /// Measured nanoseconds in sparse-selected coupling ops.
    KernelSparseNs => KernelSelection "sparse_secs" as secs;
    /// Measured nanoseconds in dense-selected coupling ops.
    KernelDenseNs => KernelSelection "dense_secs" as secs;
    /// Model-predicted nanoseconds for the same sparse-selected ops, so
    /// predicted and measured cover the identical op set.
    KernelSparsePredNs => KernelSelection "predicted_sparse_secs" as secs;
    /// Model-predicted nanoseconds for the same dense-selected ops.
    KernelDensePredNs => KernelSelection "predicted_dense_secs" as secs;
    /// Sweep requests admitted into the service queue.
    ServiceAdmitted "service.admitted" => Service "admitted";
    /// Sweep requests rejected with backpressure: queue full, shutdown in
    /// progress, or an open circuit breaker.
    ServiceRejected "service.rejected" => Service "rejected";
    /// Sweep requests completed with every point answered.
    ServiceCompleted "service.completed" => Service "completed";
    /// Sweep requests that failed after exhausting their retry budget.
    ServiceFailed "service.failed" => Service "failed";
    /// Requests cancelled by the deadline watchdog.
    ServiceDeadlineCancels "service.deadline_cancels" => Service "deadline_cancels";
    /// Sweep points seeded from a neighboring converged solve (attempts).
    ServiceWarmStarts "service.warm_starts" => Service "warm_starts";
    /// Warm-start validation failures that degraded to a cold solve.
    ServiceWarmFallbacks "service.warm_fallbacks" => Service "warm_fallbacks";
    /// Per-request retries after a transient failure.
    ServiceRetries "service.retries" => Service "retries";
    /// Circuit-breaker trips quarantining a device variant.
    ServiceBreakerOpens "service.breaker_opens" => Service "breaker_opens";
    /// In-flight sweep points checkpointed by drain-on-shutdown.
    ServiceDrained "service.drained" => Service "drained";
    /// Warm-start seeds evicted by the bounded store's spread-preserving
    /// policy.
    ServiceWarmEvicted "service.warm_evicted" => Service "warm_evicted";
    /// Scenarios parsed, validated and built into a simulation.
    CorpusScenariosBuilt "corpus.scenarios_built" => Corpus "scenarios_built";
    /// Scenarios rejected by fail-closed validation with a typed
    /// `ScenarioError`.
    CorpusScenariosRejected "corpus.scenarios_rejected" => Corpus "scenarios_rejected";
    /// Golden-corpus scenarios executed end to end.
    CorpusScenariosRun "corpus.scenarios_run" => Corpus "scenarios_run";
    /// Scenario fingerprints that matched their golden record.
    CorpusMatched "corpus.matched" => Corpus "matched";
    /// Scenario fingerprints that diverged from their golden record.
    CorpusMismatched "corpus.mismatched" => Corpus "mismatched";
    /// Chaos-matrix reruns of corpus scenarios under fault injection.
    CorpusChaosReruns "corpus.chaos_reruns" => Corpus "chaos_reruns";
}

struct Cell {
    v: [AtomicU64; N_COUNTERS],
}

static CELLS: Mutex<Vec<Arc<Cell>>> = Mutex::new(Vec::new());

thread_local! {
    static CELL: Arc<Cell> = {
        let cell = Arc::new(Cell {
            v: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        CELLS.lock().unwrap().push(cell.clone());
        cell
    };
}

/// Add `n` to counter `c` on the calling thread's shard.
#[inline]
pub fn add(c: Counter, n: u64) {
    CELL.with(|cell| cell.v[c as usize].fetch_add(n, Relaxed));
}

/// Counter `c` summed over all threads (alive or exited) since the last
/// reset.
pub fn total(c: Counter) -> u64 {
    CELLS
        .lock()
        .unwrap()
        .iter()
        .map(|cell| cell.v[c as usize].load(Relaxed))
        .sum()
}

/// Counter `c` as accumulated by the calling thread since the last reset.
#[inline]
pub fn local(c: Counter) -> u64 {
    CELL.with(|cell| cell.v[c as usize].load(Relaxed))
}

/// Add `n` real floating-point operations to the calling thread's shard.
#[inline]
pub fn add_flops(n: u64) {
    add(Counter::Flops, n);
}

/// Account a complex `m × k × n` GEMM (8 real flops per complex MAC).
#[inline]
pub fn add_gemm_flops(m: usize, k: usize, n: usize) {
    add_gemm_flops_batched(m, k, n, 1);
}

/// Account `batch` complex `m × k × n` GEMMs.
#[inline]
pub fn add_gemm_flops_batched(m: usize, k: usize, n: usize, batch: usize) {
    add(Counter::Flops, 8 * (m * k * n * batch) as u64);
}

/// Add `n` communicated bytes to the calling thread's shard.
#[inline]
pub fn add_bytes(n: u64) {
    add(Counter::Bytes, n);
}

/// Account one heap allocation of `bytes` bytes (`alloc.bytes` /
/// `alloc.count`). Fed by the counting global allocator in `qt-bench`;
/// callers must guard against allocator re-entrancy themselves (this
/// function may allocate on a thread's *first* counter touch, when its
/// shard cell is registered).
#[inline]
pub fn add_alloc(bytes: u64) {
    add(Counter::AllocBytes, bytes);
    add(Counter::AllocCount, 1);
}

/// Total flops across all threads (alive or exited) since the last reset.
pub fn total_flops() -> u64 {
    total(Counter::Flops)
}

/// Total boundary-cache hits across all threads since the last reset.
pub fn total_boundary_hits() -> u64 {
    total(Counter::BoundaryHits)
}

/// Total boundary-cache misses across all threads since the last reset.
pub fn total_boundary_misses() -> u64 {
    total(Counter::BoundaryMisses)
}

/// Counter values indexed by [`Counter`]; rows outside a snapshot stay 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts([u64; N_COUNTERS]);

// `#[derive(Default)]` stops at 32-element arrays.
impl Default for Counts {
    fn default() -> Counts {
        Counts([0; N_COUNTERS])
    }
}

impl Counts {
    /// Snapshot the totals of the rows `pick` selects. Rows are read last
    /// to first, so a settlement counter is read before the attempt
    /// counter listed above it and a snapshot taken mid-run never shows
    /// more settlements than attempts.
    pub(crate) fn read(pick: impl Fn(&Row) -> bool) -> Counts {
        let mut counts = Counts::default();
        for row in TABLE.iter().rev().filter(|r| pick(r)) {
            counts[row.counter] = total(row.counter);
        }
        counts
    }

    /// Snapshot the counters of one report block.
    pub fn block(block: Block) -> Counts {
        Counts::read(|r| r.block == block)
    }
}

impl Index<Counter> for Counts {
    type Output = u64;
    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for Counts {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

/// Zero every counter on every registered cell.
pub fn reset_counters() {
    for cell in CELLS.lock().unwrap().iter() {
        for a in &cell.v {
            a.store(0, Relaxed);
        }
    }
}

/// Zero only the flop counters (the historical `reset_flops` semantics of
/// `qt_linalg::flops`).
pub fn reset_flops() {
    for cell in CELLS.lock().unwrap().iter() {
        cell.v[Counter::Flops as usize].store(0, Relaxed);
    }
}

/// Hot sections timed with dedicated per-thread counters instead of
/// registry spans, so the blocked-GEMM inner loops never touch a lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotSection {
    /// Operand packing (`pack_a` / `pack_b`) in the blocked GEMM.
    GemmPack,
    /// The register-tiled macro kernel of the blocked GEMM.
    GemmKernel,
}

/// Run `f`, attributing its wall-time to `section` when telemetry is
/// enabled. Disabled cost is one relaxed atomic load.
#[inline]
pub fn timed<R>(section: HotSection, f: impl FnOnce() -> R) -> R {
    if !crate::span::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let (ns_counter, calls_counter) = match section {
        HotSection::GemmPack => (Counter::GemmPackNs, Counter::GemmPackCalls),
        HotSection::GemmKernel => (Counter::GemmKernelNs, Counter::GemmKernelCalls),
    };
    add(ns_counter, ns);
    add(calls_counter, 1);
    out
}

/// Aggregated pack-vs-microkernel timing for the blocked GEMM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GemmSplit {
    /// Summed busy nanoseconds in operand packing, across threads.
    pub pack_ns: u64,
    /// Number of timed packing sections.
    pub pack_calls: u64,
    /// Summed busy nanoseconds in the macro kernel, across threads.
    pub kernel_ns: u64,
    /// Number of timed macro-kernel sections.
    pub kernel_calls: u64,
}

/// Snapshot the pack/kernel hot-section counters.
pub fn gemm_split() -> GemmSplit {
    GemmSplit {
        pack_ns: total(Counter::GemmPackNs),
        pack_calls: total(Counter::GemmPackCalls),
        kernel_ns: total(Counter::GemmKernelNs),
        kernel_calls: total(Counter::GemmKernelCalls),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::{BalanceReport, JournalBlock, TelemetryReport};

    #[test]
    fn local_counts_feed_totals() {
        let f0 = total_flops();
        let l0 = local(Counter::Flops);
        add_gemm_flops_batched(2, 3, 4, 5);
        assert_eq!(local(Counter::Flops) - l0, 8 * 2 * 3 * 4 * 5);
        assert!(total_flops() - f0 >= 8 * 2 * 3 * 4 * 5);
    }

    /// The report key of each block, `None` for the top level.
    fn block_key(block: Block) -> Option<&'static str> {
        match block {
            Block::Top => None,
            Block::Health => Some("health"),
            Block::Elasticity => Some("elasticity"),
            Block::Balance => Some("balance"),
            Block::KernelSelection => Some("kernel_selection"),
            Block::Service => Some("service"),
            Block::Corpus => Some("corpus"),
            Block::Journal => Some("journal"),
            Block::Unreported => unreachable!(),
        }
    }

    fn fields(v: &Json) -> &[(String, Json)] {
        match v {
            Json::Obj(fields) => fields,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn every_row_is_counted_sampled_rendered_and_reported() {
        for (i, row) in TABLE.iter().enumerate() {
            let c = row.counter;
            assert_eq!(c as usize, i, "{c:?} sits in another row's slot");
            // Two admissions and two runs keep `completed + failed <=
            // admitted` and `matched + mismatched <= scenarios_run` true
            // for concurrent tests validating the process-global totals.
            let n = match c {
                Counter::ServiceAdmitted | Counter::CorpusScenariosRun => 2,
                _ => 1,
            };
            let t0 = total(c);
            let on_thread = std::thread::spawn(move || {
                let l0 = local(c);
                add(c, n);
                local(c) - l0
            });
            assert_eq!(on_thread.join().unwrap(), n, "local {c:?}");
            assert!(total(c) - t0 >= n, "total {c:?}");
        }

        let sample = crate::series::Sample {
            ts_us: 0.0,
            iteration: 0,
            values: Counts::default(),
        }
        .to_json();
        let sampled = fields(sample.get("values").unwrap());
        let prom = crate::series::render_prometheus();
        for row in &TABLE {
            let Some(name) = row.name else { continue };
            let in_sample = sampled.iter().filter(|(k, _)| k == name).count();
            assert_eq!(in_sample, row.sampled() as usize, "{name} in the sample");
            let prom_name = format!("qt_{} ", name.replace('.', "_"));
            let in_prom = prom.lines().filter(|l| l.starts_with(&prom_name)).count();
            assert_eq!(in_prom, 1, "{name} in the Prometheus text");
        }
        assert_eq!(sampled.len(), TABLE.iter().filter(|r| r.sampled()).count());

        let mut rep = TelemetryReport::from_current();
        rep.balance = Some(BalanceReport::from_busy_times(vec![1.0], 0.0));
        rep.journal = Some(JournalBlock::from_journal());
        let root = Json::parse(&rep.to_json()).unwrap();
        TelemetryReport::from_json(&root.dump()).unwrap();
        for row in TABLE.iter().filter(|r| r.block != Block::Unreported) {
            let block = block_key(row.block);
            let obj = block.map_or(&root, |b| root.get(b).unwrap());
            let hits = fields(obj).iter().filter(|(k, _)| k == row.key).count();
            assert_eq!(hits, 1, "{:?} in block {block:?}", row.key);
            // Strip the key and the report must no longer parse.
            let mut stripped = root.clone();
            let Json::Obj(top) = &mut stripped else {
                unreachable!()
            };
            let target = match block {
                None => top,
                Some(b) => match &mut top.iter_mut().find(|(k, _)| k == b).unwrap().1 {
                    Json::Obj(inner) => inner,
                    _ => unreachable!(),
                },
            };
            target.retain(|(k, _)| k != row.key);
            assert!(
                TelemetryReport::from_json(&stripped.dump()).is_err(),
                "report without {:?} in block {block:?} parsed",
                row.key
            );
        }
    }

    #[test]
    fn cross_thread_counts_survive_thread_exit() {
        let before = total_flops();
        std::thread::spawn(|| add_flops(77)).join().unwrap();
        assert!(total_flops() - before >= 77);
    }

    #[test]
    fn timed_is_transparent_when_disabled() {
        let calls0 = local(Counter::GemmPackCalls);
        let v = timed(HotSection::GemmPack, || 41 + 1);
        assert_eq!(v, 42);
        if !crate::span::enabled() {
            assert_eq!(local(Counter::GemmPackCalls), calls0);
        }
    }
}

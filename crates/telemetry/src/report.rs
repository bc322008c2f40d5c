//! The structured JSON report: per-phase statistics, model residuals,
//! convergence trajectory, and per-rank communication volumes.

use std::collections::BTreeMap;

use crate::counters::{self, Block, Counter, Counts, TABLE};
use crate::json::Json;
use crate::{journal, registry, registry::PhaseStat, series};

/// Per-phase entry of the report.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Phase path, e.g. `"sse/sigma/dace"`.
    pub path: String,
    /// Number of spans closed on this path.
    pub calls: u64,
    /// Summed span duration in milliseconds (wall-time for sequential
    /// phases, aggregate busy time for worker-thread phases).
    pub wall_ms: f64,
    /// Real flops attributed to the phase, in Gflop.
    pub gflop: f64,
    /// Throughput over the summed duration, in Gflop/s.
    pub gflop_per_s: f64,
    /// Communicated bytes attributed to the phase.
    pub bytes: u64,
    /// Heap bytes allocated while the phase was open (`alloc.bytes`;
    /// non-zero only under the counting global allocator).
    pub alloc_bytes: u64,
    /// Heap allocations performed while the phase was open
    /// (`alloc.count`).
    pub alloc_count: u64,
}

/// One measured-vs-model comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelResidual {
    /// What is being compared, e.g. `"sse_dace_flops_vs_exact"`.
    pub name: String,
    /// The instrumented measurement.
    pub measured: f64,
    /// The closed-form model value.
    pub model: f64,
    /// `(measured - model) / model`.
    pub rel_error: f64,
    /// Whether the model is implementation-exact (residual must vanish)
    /// or an asymptotic paper form (informational).
    pub exact: bool,
}

impl ModelResidual {
    /// Build a residual entry, computing the relative error.
    pub fn new(name: impl Into<String>, measured: f64, model: f64, exact: bool) -> Self {
        let rel_error = if model != 0.0 {
            (measured - model) / model
        } else if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        ModelResidual {
            name: name.into(),
            measured,
            model,
            rel_error,
            exact,
        }
    }
}

/// One SCF iteration of the convergence trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergencePoint {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Current residual; `None` on the first iteration (no previous
    /// Green's function to difference against).
    pub residual: Option<f64>,
    /// Mixing factor applied to the self-energies this iteration.
    pub mixing: f64,
    /// Wall-time of the iteration in milliseconds.
    pub wall_ms: f64,
    /// Terminal current after the iteration.
    pub current: f64,
    /// Heap bytes allocated during the iteration (non-zero only under
    /// the counting global allocator). The cold-vs-warm gap of this
    /// column is the allocator-traffic payoff of the workspace arenas
    /// and the boundary cache.
    pub alloc_bytes: u64,
}

/// Cold-vs-warm SCF iteration comparison: iteration 0 pays Sancho-Rubio
/// decimation and arena warm-up; later iterations should be served from
/// the boundary cache and the workspace pools.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmupStats {
    /// Wall-time of iteration 0 in milliseconds.
    pub cold_wall_ms: f64,
    /// Mean wall-time of iterations ≥ 1 in milliseconds.
    pub warm_wall_ms: f64,
    /// `cold_wall_ms / warm_wall_ms`.
    pub wall_speedup: f64,
    /// Heap bytes allocated during iteration 0.
    pub cold_alloc_bytes: u64,
    /// Mean heap bytes allocated per iteration ≥ 1.
    pub warm_alloc_bytes: u64,
    /// `1 − warm/cold` allocator-byte reduction (0 when cold is 0).
    pub alloc_reduction: f64,
}

impl WarmupStats {
    /// Derive cold-vs-warm statistics from a convergence trajectory.
    /// Returns `None` with fewer than two iterations (no warm sample).
    pub fn from_convergence(points: &[ConvergencePoint]) -> Option<WarmupStats> {
        let (cold, warm) = points.split_first()?;
        if warm.is_empty() {
            return None;
        }
        let warm_wall_ms = warm.iter().map(|p| p.wall_ms).sum::<f64>() / warm.len() as f64;
        let warm_alloc_bytes = warm.iter().map(|p| p.alloc_bytes).sum::<u64>() / warm.len() as u64;
        Some(WarmupStats {
            cold_wall_ms: cold.wall_ms,
            warm_wall_ms,
            wall_speedup: if warm_wall_ms > 0.0 {
                cold.wall_ms / warm_wall_ms
            } else {
                0.0
            },
            cold_alloc_bytes: cold.alloc_bytes,
            warm_alloc_bytes,
            alloc_reduction: if cold.alloc_bytes > 0 {
                1.0 - warm_alloc_bytes as f64 / cold.alloc_bytes as f64
            } else {
                0.0
            },
        })
    }
}

/// Load-balance summary of the distributed iteration: per-rank busy
/// times, the resulting imbalance ratio, and what the adaptive machinery
/// (cost-model re-tiling, intra-iteration work stealing) did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BalanceReport {
    /// Busy milliseconds per world slot (compute time, excluding waits).
    pub rank_busy_ms: Vec<f64>,
    /// `max / mean` of the per-rank busy times (1.0 = perfect balance).
    pub imbalance_ratio: f64,
    /// The same ratio under the static uniform tiling — the baseline the
    /// adaptive layer is compared against. 0.0 when not measured.
    pub imbalance_before: f64,
    /// The [`Block::Balance`] counters: steals and re-partitioning.
    pub counters: Counts,
}

impl BalanceReport {
    /// Build from measured per-rank busy times (milliseconds), snapshotting
    /// the global balance counters. `imbalance_before` is the static-tiling
    /// baseline ratio when one was measured, else 0.
    pub fn from_busy_times(rank_busy_ms: Vec<f64>, imbalance_before: f64) -> Self {
        let ratio = Self::ratio(&rank_busy_ms);
        BalanceReport {
            rank_busy_ms,
            imbalance_ratio: ratio,
            imbalance_before,
            counters: Counts::block(Block::Balance),
        }
    }

    /// `max / mean` of a busy-time vector; 1.0 for empty or all-zero
    /// input.
    pub fn ratio(busy: &[f64]) -> f64 {
        if busy.is_empty() {
            return 1.0;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        busy.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Kernel-selection summary: what the per-block sparse/dense selector
/// decided during RGF, how much work each route carried, and how the
/// measured wall-time per route compares to the calibrated model's
/// prediction — so a mis-calibrated selector shows up as a CI-visible
/// residual instead of a silent slowdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelSelectionReport {
    /// The [`Block::KernelSelection`] counters: decisions, per-route work,
    /// and measured vs model-predicted nanoseconds (reported as seconds).
    pub counters: Counts,
    /// The crossover density the selector was operating with (sparse
    /// wins below it); 0 when unknown to the report writer.
    pub crossover_density: f64,
}

/// Kernel-selector decisions; the `kernel_selection` block is emitted,
/// and valid, only when one is non-zero.
const KERNEL_DECISIONS: [Counter; 2] =
    [Counter::KernelSparseSelected, Counter::KernelDenseSelected];
/// Sweep requests seen by admission control; the `service` block is
/// emitted, and valid, only when one is non-zero. `warm_starts` counts
/// seeding attempts, so `warm_fallbacks` can never exceed it.
const SERVICE_REQUESTS: [Counter; 2] = [Counter::ServiceAdmitted, Counter::ServiceRejected];
/// Scenarios built, rejected or run; the `corpus` block is emitted, and
/// valid, only when one is non-zero. Every compared fingerprint comes
/// from a run, so `matched + mismatched` never exceeds `scenarios_run`.
const CORPUS_SCENARIOS: [Counter; 3] = [
    Counter::CorpusScenariosBuilt,
    Counter::CorpusScenariosRejected,
    Counter::CorpusScenariosRun,
];

fn any(counts: &Counts, of: &[Counter]) -> bool {
    of.iter().any(|&c| counts[c] > 0)
}

/// The report keys and values of `block`'s counters, in table order.
fn block_fields(block: Block, counts: &Counts) -> Vec<(String, Json)> {
    TABLE
        .iter()
        .filter(|r| r.block == block)
        .map(|r| {
            let v = counts[r.counter] as f64;
            let v = if r.secs { v / 1e9 } else { v };
            (r.key.to_string(), Json::Num(v))
        })
        .collect()
}

/// Parse `block`'s counters from the object `v`; every key is required.
fn block_from_json(block: Block, v: &Json) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for r in TABLE.iter().filter(|r| r.block == block) {
        let field = v.get(r.key);
        counts[r.counter] = if r.secs {
            let secs = field
                .and_then(Json::as_f64)
                .filter(|s| *s >= 0.0 && s.is_finite());
            (secs.ok_or(format!("entry lacks seconds {:?}", r.key))? * 1e9).round() as u64
        } else {
            field
                .and_then(Json::as_u64)
                .ok_or(format!("entry lacks integer {:?}", r.key))?
        };
    }
    Ok(counts)
}

fn opt_block_json(block: Block, counts: &Option<Counts>) -> Json {
    counts.map_or(Json::Null, |c| Json::Obj(block_fields(block, &c)))
}

/// Metrics time-series block: the periodic counter snapshots taken by
/// [`crate::series`], in chronological order, with ring-drop accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesBlock {
    /// Samples in chronological order.
    pub samples: Vec<series::Sample>,
    /// Samples lost to sample-ring overflow.
    pub dropped: u64,
}

impl SeriesBlock {
    /// Snapshot the global sample ring.
    pub fn from_series() -> Self {
        let (samples, dropped) = series::snapshot();
        SeriesBlock { samples, dropped }
    }
}

/// Event-journal summary block: how many events the flight recorder
/// holds, how many it lost to ring overflow, and the per-kind breakdown.
/// The full timeline is not embedded in the report — it ships in
/// postmortem dumps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalBlock {
    /// Events currently buffered across all rings.
    pub events: u64,
    /// Events lost to ring overflow (the `journal.dropped` counter).
    pub dropped: u64,
    /// Buffered events per kind tag, sorted by tag.
    pub by_kind: Vec<(String, u64)>,
}

impl JournalBlock {
    /// Summarize the live journal without draining it.
    pub fn from_journal() -> Self {
        let by_kind: Vec<(String, u64)> = journal::kind_counts()
            .into_iter()
            .map(|(t, n)| (t.to_string(), n))
            .collect();
        JournalBlock {
            events: by_kind.iter().map(|(_, n)| n).sum(),
            dropped: counters::total(Counter::JournalDropped),
            by_kind,
        }
    }
}

/// Per-rank communication volume of a distributed phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankComm {
    /// Rank index within the thread world.
    pub rank: usize,
    /// Bytes this rank pushed to other ranks (self-sends are free).
    pub sent_bytes: u64,
    /// Bytes this rank received from other ranks.
    pub recv_bytes: u64,
}

/// The full telemetry report emitted by `reproduce profile`. The pure
/// counter blocks (`health`, `elasticity`, `service`, `corpus`) are
/// [`Counts`] of their [`Block`]'s rows, keyed in JSON by each row's key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-phase statistics, sorted by path.
    pub phases: Vec<PhaseReport>,
    /// Measured-vs-model comparisons (Tables 3–5).
    pub residuals: Vec<ModelResidual>,
    /// SCF convergence trajectory.
    pub convergence: Vec<ConvergencePoint>,
    /// Per-rank communication volumes of the distributed iteration.
    pub comm: Vec<RankComm>,
    /// The [`Block::Top`] counters: total flops and bytes, boundary-cache
    /// hits and misses.
    pub totals: Counts,
    /// Cold-vs-warm SCF iteration comparison, when a trajectory with at
    /// least two iterations was recorded.
    pub warmup: Option<WarmupStats>,
    /// Resilience counters; `None` only for reports predating the health
    /// guards (`check-report --require-health` rejects those).
    pub health: Option<Counts>,
    /// Elastic-recovery counters; `None` only for reports predating the
    /// rank-failure recovery machinery (also rejected under
    /// `check-report --require-health`).
    pub elasticity: Option<Counts>,
    /// Load-balance summary of the distributed iteration; `None` until a
    /// run with per-rank busy-time measurement fills it in
    /// (`check-report --require-balance` rejects reports without it).
    pub balance: Option<BalanceReport>,
    /// Kernel-selection summary; `None` until a run actually exercised
    /// the per-block sparse/dense selector (`check-report
    /// --require-kernel-selection` rejects reports without it).
    pub kernel_selection: Option<KernelSelectionReport>,
    /// Sweep-service availability summary; `None` until a run touched
    /// the service admission path (`check-report --require-service`
    /// rejects reports without it).
    pub service: Option<Counts>,
    /// Scenario-corpus summary; `None` until a run touched the scenario
    /// builder or the golden-corpus gate (`check-report
    /// --require-corpus` rejects reports without it).
    pub corpus: Option<Counts>,
    /// Metrics time-series; `None` unless series sampling was enabled.
    pub series: Option<SeriesBlock>,
    /// Event-journal summary; `None` unless journaling was enabled.
    pub journal: Option<JournalBlock>,
}

fn phase_report(path: &str, s: &PhaseStat) -> PhaseReport {
    let wall_s = s.wall_ns as f64 / 1e9;
    let gflop = s.flops as f64 / 1e9;
    PhaseReport {
        path: path.to_string(),
        calls: s.calls,
        wall_ms: s.wall_ns as f64 / 1e6,
        gflop,
        gflop_per_s: if wall_s > 0.0 { gflop / wall_s } else { 0.0 },
        bytes: s.bytes,
        alloc_bytes: s.alloc_bytes,
        alloc_count: s.alloc_count,
    }
}

impl TelemetryReport {
    /// Build a report from the current global telemetry state: the phase
    /// registry, the GEMM pack/kernel hot sections, and the counter
    /// totals. Residuals, convergence and per-rank comm sections start
    /// empty — the caller fills them in.
    pub fn from_current() -> Self {
        let mut phases: BTreeMap<String, PhaseStat> = registry::snapshot();
        let split = counters::gemm_split();
        if split.pack_calls > 0 {
            phases.insert(
                "gemm.pack".to_string(),
                PhaseStat {
                    calls: split.pack_calls,
                    wall_ns: split.pack_ns,
                    ..PhaseStat::default()
                },
            );
        }
        if split.kernel_calls > 0 {
            phases.insert(
                "gemm.kernel".to_string(),
                PhaseStat {
                    calls: split.kernel_calls,
                    wall_ns: split.kernel_ns,
                    ..PhaseStat::default()
                },
            );
        }
        let kernel = Counts::block(Block::KernelSelection);
        let service = Counts::block(Block::Service);
        let corpus = Counts::block(Block::Corpus);
        TelemetryReport {
            phases: phases.iter().map(|(p, s)| phase_report(p, s)).collect(),
            residuals: Vec::new(),
            convergence: Vec::new(),
            comm: Vec::new(),
            totals: Counts::block(Block::Top),
            warmup: None,
            health: Some(Counts::block(Block::Health)),
            elasticity: Some(Counts::block(Block::Elasticity)),
            balance: None,
            kernel_selection: any(&kernel, &KERNEL_DECISIONS).then_some(KernelSelectionReport {
                counters: kernel,
                crossover_density: 0.0,
            }),
            service: any(&service, &SERVICE_REQUESTS).then_some(service),
            corpus: any(&corpus, &CORPUS_SCENARIOS).then_some(corpus),
            series: series::series_enabled().then(SeriesBlock::from_series),
            journal: journal::journaling_enabled().then(JournalBlock::from_journal),
        }
    }

    /// Serialise as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("path".to_string(), Json::Str(p.path.clone())),
                    ("calls".to_string(), Json::Num(p.calls as f64)),
                    ("wall_ms".to_string(), Json::Num(p.wall_ms)),
                    ("gflop".to_string(), Json::Num(p.gflop)),
                    ("gflop_per_s".to_string(), Json::Num(p.gflop_per_s)),
                    ("bytes".to_string(), Json::Num(p.bytes as f64)),
                    ("alloc_bytes".to_string(), Json::Num(p.alloc_bytes as f64)),
                    ("alloc_count".to_string(), Json::Num(p.alloc_count as f64)),
                ])
            })
            .collect();
        let residuals = self
            .residuals
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(r.name.clone())),
                    ("measured".to_string(), Json::Num(r.measured)),
                    ("model".to_string(), Json::Num(r.model)),
                    ("rel_error".to_string(), Json::Num(r.rel_error)),
                    ("exact".to_string(), Json::Bool(r.exact)),
                ])
            })
            .collect();
        let convergence = self
            .convergence
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("iteration".to_string(), Json::Num(c.iteration as f64)),
                    (
                        "residual".to_string(),
                        c.residual.map_or(Json::Null, Json::Num),
                    ),
                    ("mixing".to_string(), Json::Num(c.mixing)),
                    ("wall_ms".to_string(), Json::Num(c.wall_ms)),
                    ("current".to_string(), Json::Num(c.current)),
                    ("alloc_bytes".to_string(), Json::Num(c.alloc_bytes as f64)),
                ])
            })
            .collect();
        let comm = self
            .comm
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("rank".to_string(), Json::Num(c.rank as f64)),
                    ("sent_bytes".to_string(), Json::Num(c.sent_bytes as f64)),
                    ("recv_bytes".to_string(), Json::Num(c.recv_bytes as f64)),
                ])
            })
            .collect();
        let warmup = match &self.warmup {
            None => Json::Null,
            Some(w) => Json::Obj(vec![
                ("cold_wall_ms".to_string(), Json::Num(w.cold_wall_ms)),
                ("warm_wall_ms".to_string(), Json::Num(w.warm_wall_ms)),
                ("wall_speedup".to_string(), Json::Num(w.wall_speedup)),
                (
                    "cold_alloc_bytes".to_string(),
                    Json::Num(w.cold_alloc_bytes as f64),
                ),
                (
                    "warm_alloc_bytes".to_string(),
                    Json::Num(w.warm_alloc_bytes as f64),
                ),
                ("alloc_reduction".to_string(), Json::Num(w.alloc_reduction)),
            ]),
        };
        let balance = match &self.balance {
            None => Json::Null,
            Some(b) => {
                let mut fields = vec![
                    (
                        "rank_busy_ms".to_string(),
                        Json::Arr(b.rank_busy_ms.iter().map(|&ms| Json::Num(ms)).collect()),
                    ),
                    ("imbalance_ratio".to_string(), Json::Num(b.imbalance_ratio)),
                    (
                        "imbalance_before".to_string(),
                        Json::Num(b.imbalance_before),
                    ),
                ];
                fields.extend(block_fields(Block::Balance, &b.counters));
                Json::Obj(fields)
            }
        };
        let kernel_selection = match &self.kernel_selection {
            None => Json::Null,
            Some(k) => {
                let mut fields = block_fields(Block::KernelSelection, &k.counters);
                fields.push((
                    "crossover_density".to_string(),
                    Json::Num(k.crossover_density),
                ));
                Json::Obj(fields)
            }
        };
        let series_block = match &self.series {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                (
                    "samples".to_string(),
                    Json::Arr(s.samples.iter().map(series::Sample::to_json).collect()),
                ),
                ("dropped".to_string(), Json::Num(s.dropped as f64)),
            ]),
        };
        let journal_block = match &self.journal {
            None => Json::Null,
            Some(j) => Json::Obj(vec![
                ("events".to_string(), Json::Num(j.events as f64)),
                ("dropped".to_string(), Json::Num(j.dropped as f64)),
                (
                    "by_kind".to_string(),
                    Json::Obj(
                        j.by_kind
                            .iter()
                            .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                            .collect(),
                    ),
                ),
            ]),
        };
        let mut fields = vec![
            ("phases".to_string(), Json::Arr(phases)),
            ("residuals".to_string(), Json::Arr(residuals)),
            ("convergence".to_string(), Json::Arr(convergence)),
            ("comm".to_string(), Json::Arr(comm)),
        ];
        fields.extend(block_fields(Block::Top, &self.totals));
        fields.extend([
            ("warmup".to_string(), warmup),
            (
                "health".to_string(),
                opt_block_json(Block::Health, &self.health),
            ),
            (
                "elasticity".to_string(),
                opt_block_json(Block::Elasticity, &self.elasticity),
            ),
            ("balance".to_string(), balance),
            ("kernel_selection".to_string(), kernel_selection),
            (
                "service".to_string(),
                opt_block_json(Block::Service, &self.service),
            ),
            (
                "corpus".to_string(),
                opt_block_json(Block::Corpus, &self.corpus),
            ),
            ("series".to_string(), series_block),
            ("journal".to_string(), journal_block),
        ]);
        Json::Obj(fields).dump()
    }

    /// Parse a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let root = Json::parse(json).map_err(|e| format!("report does not parse: {e}"))?;
        let arr = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("report lacks {key:?} array"))
        };
        let str_field = |v: &Json, key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("entry lacks string {key:?}"))?
                .to_string())
        };
        let num_field = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("entry lacks number {key:?}"))
        };
        let int_field = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("entry lacks integer {key:?}"))
        };

        let opt_block = |key: &str, block: Block| match root.get(key) {
            Some(Json::Null) | None => Ok(None),
            Some(v) => block_from_json(block, v).map(Some),
        };

        let mut report = TelemetryReport {
            totals: block_from_json(Block::Top, &root)?,
            warmup: match root.get("warmup") {
                Some(Json::Null) | None => None,
                Some(w) => Some(WarmupStats {
                    cold_wall_ms: num_field(w, "cold_wall_ms")?,
                    warm_wall_ms: num_field(w, "warm_wall_ms")?,
                    wall_speedup: num_field(w, "wall_speedup")?,
                    cold_alloc_bytes: int_field(w, "cold_alloc_bytes")?,
                    warm_alloc_bytes: int_field(w, "warm_alloc_bytes")?,
                    alloc_reduction: num_field(w, "alloc_reduction")?,
                }),
            },
            health: opt_block("health", Block::Health)?,
            elasticity: opt_block("elasticity", Block::Elasticity)?,
            balance: match root.get("balance") {
                Some(Json::Null) | None => None,
                Some(b) => Some(BalanceReport {
                    rank_busy_ms: b
                        .get("rank_busy_ms")
                        .and_then(Json::as_array)
                        .ok_or("balance lacks rank_busy_ms array")?
                        .iter()
                        .map(|v| v.as_f64().ok_or("bad rank_busy_ms entry"))
                        .collect::<Result<Vec<f64>, _>>()?,
                    imbalance_ratio: num_field(b, "imbalance_ratio")?,
                    imbalance_before: num_field(b, "imbalance_before")?,
                    counters: block_from_json(Block::Balance, b)?,
                }),
            },
            kernel_selection: match root.get("kernel_selection") {
                Some(Json::Null) | None => None,
                Some(k) => Some(KernelSelectionReport {
                    counters: block_from_json(Block::KernelSelection, k)?,
                    crossover_density: num_field(k, "crossover_density")?,
                }),
            },
            service: opt_block("service", Block::Service)?,
            corpus: opt_block("corpus", Block::Corpus)?,
            series: match root.get("series") {
                Some(Json::Null) | None => None,
                Some(s) => Some(SeriesBlock {
                    samples: s
                        .get("samples")
                        .and_then(Json::as_array)
                        .ok_or("series lacks samples array")?
                        .iter()
                        .map(series::Sample::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    dropped: int_field(s, "dropped")?,
                }),
            },
            journal: match root.get("journal") {
                Some(Json::Null) | None => None,
                Some(j) => Some(JournalBlock {
                    events: int_field(j, "events")?,
                    dropped: int_field(j, "dropped")?,
                    by_kind: match j.get("by_kind") {
                        Some(Json::Obj(fields)) => fields
                            .iter()
                            .map(|(k, v)| {
                                Ok((
                                    k.clone(),
                                    v.as_u64().ok_or(format!("bad by_kind count for {k:?}"))?,
                                ))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => return Err("journal block lacks by_kind object".into()),
                    },
                }),
            },
            ..TelemetryReport::default()
        };
        for p in arr("phases")? {
            report.phases.push(PhaseReport {
                path: str_field(p, "path")?,
                calls: int_field(p, "calls")?,
                wall_ms: num_field(p, "wall_ms")?,
                gflop: num_field(p, "gflop")?,
                gflop_per_s: num_field(p, "gflop_per_s")?,
                bytes: int_field(p, "bytes")?,
                alloc_bytes: int_field(p, "alloc_bytes")?,
                alloc_count: int_field(p, "alloc_count")?,
            });
        }
        for r in arr("residuals")? {
            report.residuals.push(ModelResidual {
                name: str_field(r, "name")?,
                measured: num_field(r, "measured")?,
                model: num_field(r, "model")?,
                rel_error: num_field(r, "rel_error")?,
                exact: r
                    .get("exact")
                    .and_then(Json::as_bool)
                    .ok_or("residual lacks bool \"exact\"")?,
            });
        }
        for c in arr("convergence")? {
            report.convergence.push(ConvergencePoint {
                iteration: int_field(c, "iteration")? as usize,
                residual: match c.get("residual") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(v.as_f64().ok_or("bad residual value")?),
                },
                mixing: num_field(c, "mixing")?,
                wall_ms: num_field(c, "wall_ms")?,
                current: num_field(c, "current")?,
                alloc_bytes: int_field(c, "alloc_bytes")?,
            });
        }
        for c in arr("comm")? {
            report.comm.push(RankComm {
                rank: int_field(c, "rank")? as usize,
                sent_bytes: int_field(c, "sent_bytes")?,
                recv_bytes: int_field(c, "recv_bytes")?,
            });
        }
        Ok(report)
    }

    /// Schema validation: every numeric field finite and non-negative
    /// where it must be, at least one phase present, and every residual
    /// marked `exact` actually vanishing.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("report has no phases".into());
        }
        for p in &self.phases {
            if p.path.is_empty() {
                return Err("phase with empty path".into());
            }
            if !(p.wall_ms.is_finite() && p.wall_ms >= 0.0) {
                return Err(format!("phase {:?} has bad wall_ms {}", p.path, p.wall_ms));
            }
            if !p.gflop.is_finite() || p.gflop < 0.0 || !p.gflop_per_s.is_finite() {
                return Err(format!("phase {:?} has bad flop stats", p.path));
            }
            if p.calls == 0 {
                return Err(format!("phase {:?} reported with zero calls", p.path));
            }
        }
        for r in &self.residuals {
            if !(r.measured.is_finite() && r.model.is_finite() && r.rel_error.is_finite()) {
                return Err(format!("residual {:?} is not finite", r.name));
            }
            if r.exact && r.rel_error.abs() > 1e-9 {
                return Err(format!(
                    "exact residual {:?} does not vanish: measured {} vs model {} (rel {})",
                    r.name, r.measured, r.model, r.rel_error
                ));
            }
        }
        for c in &self.convergence {
            if let Some(res) = c.residual {
                if !(res.is_finite() && res >= 0.0) {
                    return Err(format!("iteration {} has bad residual", c.iteration));
                }
            }
            if !c.wall_ms.is_finite() || !c.current.is_finite() || !c.mixing.is_finite() {
                return Err(format!("iteration {} has non-finite fields", c.iteration));
            }
        }
        if let Some(w) = &self.warmup {
            let nums = [
                w.cold_wall_ms,
                w.warm_wall_ms,
                w.wall_speedup,
                w.alloc_reduction,
            ];
            if nums.iter().any(|x| !x.is_finite()) {
                return Err("warmup stats contain non-finite fields".into());
            }
            if w.cold_wall_ms < 0.0 || w.warm_wall_ms < 0.0 || w.wall_speedup < 0.0 {
                return Err("warmup stats contain negative timings".into());
            }
        }
        if let Some(b) = &self.balance {
            if b.rank_busy_ms.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err("balance busy times contain bad entries".into());
            }
            if !b.imbalance_ratio.is_finite() || b.imbalance_ratio < 1.0 - 1e-9 {
                return Err(format!(
                    "balance imbalance_ratio {} is not a max/mean ratio",
                    b.imbalance_ratio
                ));
            }
            if !b.imbalance_before.is_finite() || b.imbalance_before < 0.0 {
                return Err("balance imbalance_before is bad".into());
            }
            let recomputed = BalanceReport::ratio(&b.rank_busy_ms);
            if !b.rank_busy_ms.is_empty() && (recomputed - b.imbalance_ratio).abs() > 1e-6 {
                return Err(format!(
                    "balance ratio {} disagrees with busy times (expect {recomputed})",
                    b.imbalance_ratio
                ));
            }
        }
        if let Some(k) = &self.kernel_selection {
            if !any(&k.counters, &KERNEL_DECISIONS) {
                return Err("kernel_selection block present but no decisions recorded".into());
            }
            if !(0.0..=1.0).contains(&k.crossover_density) {
                return Err(format!(
                    "kernel_selection crossover_density {} is not a density",
                    k.crossover_density
                ));
            }
        }
        if let Some(s) = &self.service {
            if !any(s, &SERVICE_REQUESTS) {
                return Err("service block present but no requests recorded".into());
            }
            let settled = s[Counter::ServiceCompleted] + s[Counter::ServiceFailed];
            if settled > s[Counter::ServiceAdmitted] {
                return Err(format!(
                    "service settled {settled} requests but admitted only {}",
                    s[Counter::ServiceAdmitted]
                ));
            }
            if s[Counter::ServiceWarmFallbacks] > s[Counter::ServiceWarmStarts] {
                return Err(format!(
                    "service warm_fallbacks {} exceeds warm_starts {}",
                    s[Counter::ServiceWarmFallbacks],
                    s[Counter::ServiceWarmStarts]
                ));
            }
        }
        if let Some(c) = &self.corpus {
            if !any(c, &CORPUS_SCENARIOS) {
                return Err("corpus block present but no scenarios recorded".into());
            }
            let compared = c[Counter::CorpusMatched] + c[Counter::CorpusMismatched];
            if compared > c[Counter::CorpusScenariosRun] {
                return Err(format!(
                    "corpus compared {compared} fingerprints but ran only {} scenarios",
                    c[Counter::CorpusScenariosRun]
                ));
            }
        }
        if let Some(s) = &self.series {
            if s.samples
                .iter()
                .any(|x| !x.ts_us.is_finite() || x.ts_us < 0.0)
            {
                return Err("series samples contain bad timestamps".into());
            }
            if s.samples.windows(2).any(|w| w[0].ts_us > w[1].ts_us) {
                return Err("series samples are not chronological".into());
            }
        }
        if let Some(j) = &self.journal {
            let by_kind_total: u64 = j.by_kind.iter().map(|(_, n)| n).sum();
            if by_kind_total != j.events {
                return Err(format!(
                    "journal by_kind sums to {by_kind_total}, expected {} events",
                    j.events
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Counter::*;

    fn counts(values: &[(Counter, u64)]) -> Counts {
        let mut c = Counts::default();
        for &(counter, v) in values {
            c[counter] = v;
        }
        c
    }

    #[test]
    fn report_roundtrips_and_validates() {
        registry::record("test/report/phase", 1_000_000, 8_000, 64, 4096, 16);
        let mut rep = TelemetryReport::from_current();
        rep.residuals
            .push(ModelResidual::new("flops_vs_exact", 8000.0, 8000.0, true));
        rep.residuals
            .push(ModelResidual::new("flops_vs_table3", 8000.0, 9000.0, false));
        rep.convergence.push(ConvergencePoint {
            iteration: 0,
            residual: None,
            mixing: 0.5,
            wall_ms: 1.0,
            current: 1e-6,
            alloc_bytes: 1 << 20,
        });
        rep.convergence.push(ConvergencePoint {
            iteration: 1,
            residual: Some(0.25),
            mixing: 0.5,
            wall_ms: 1.5,
            current: 2e-6,
            alloc_bytes: 1 << 10,
        });
        rep.comm.push(RankComm {
            rank: 0,
            sent_bytes: 100,
            recv_bytes: 50,
        });
        rep.warmup = WarmupStats::from_convergence(&rep.convergence);
        rep.health = Some(counts(&[
            (HealthQuarantined, 3),
            (HealthEtaRetries, 1),
            (HealthMixingBackoffs, 2),
            (HealthCommRetries, 7),
            (HealthCheckpointWrites, 4),
        ]));
        rep.elasticity = Some(counts(&[
            (ElasticRankDeaths, 2),
            (ElasticHeartbeatTimeouts, 1),
            (ElasticRetileEvents, 2),
            (ElasticMigratedTiles, 6),
        ]));
        rep.balance = Some(BalanceReport {
            rank_busy_ms: vec![4.0, 2.0, 2.0],
            imbalance_ratio: 1.5,
            imbalance_before: 2.4,
            counters: counts(&[
                (BalanceStealRequests, 5),
                (BalanceStolenUnits, 3),
                (BalanceRebalanceEvents, 1),
                (BalanceMovedUnits, 2),
            ]),
        });
        rep.kernel_selection = Some(KernelSelectionReport {
            counters: counts(&[
                (KernelSparseSelected, 12),
                (KernelDenseSelected, 4),
                (KernelSwitches, 1),
                (KernelSparseFlops, 1 << 20),
                (KernelSparseBytes, 1 << 16),
                (KernelDenseFlops, 1 << 22),
                (KernelSparseNs, 10_000_000),
                (KernelDenseNs, 40_000_000),
                (KernelSparsePredNs, 12_000_000),
                (KernelDensePredNs, 38_000_123),
            ]),
            crossover_density: 0.3,
        });
        rep.service = Some(counts(&[
            (ServiceAdmitted, 8),
            (ServiceRejected, 2),
            (ServiceCompleted, 6),
            (ServiceFailed, 1),
            (ServiceDeadlineCancels, 1),
            (ServiceWarmStarts, 5),
            (ServiceWarmFallbacks, 1),
            (ServiceRetries, 2),
            (ServiceBreakerOpens, 1),
            (ServiceDrained, 3),
            (ServiceWarmEvicted, 2),
        ]));
        rep.corpus = Some(counts(&[
            (CorpusScenariosBuilt, 6),
            (CorpusScenariosRejected, 2),
            (CorpusScenariosRun, 5),
            (CorpusMatched, 4),
            (CorpusMismatched, 1),
            (CorpusChaosReruns, 3),
        ]));
        rep.series = Some(SeriesBlock {
            samples: vec![
                series::Sample {
                    ts_us: 10.0,
                    iteration: 0,
                    values: counts(&[(Flops, 7), (WsFresh, 7)]),
                },
                series::Sample {
                    ts_us: 20.0,
                    iteration: 1,
                    values: counts(&[(Flops, 9), (CorpusChaosReruns, 9)]),
                },
            ],
            dropped: 1,
        });
        rep.journal = Some(JournalBlock {
            events: 5,
            dropped: 2,
            by_kind: vec![
                ("heartbeat_timeout".to_string(), 3),
                ("rank_death".to_string(), 2),
            ],
        });
        rep.validate().unwrap();
        let back = TelemetryReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back, rep);
        // A kernel-selection block with no decisions must not validate.
        let mut bad = rep.clone();
        bad.kernel_selection = Some(KernelSelectionReport::default());
        assert!(bad.validate().is_err());
        // Nor one whose crossover is not a density.
        bad.kernel_selection = Some(KernelSelectionReport {
            counters: counts(&[(KernelSparseSelected, 1)]),
            crossover_density: 1.5,
        });
        assert!(bad.validate().is_err());
        // A service block with no traffic, over-settled requests, or more
        // fallbacks than warm attempts must not validate.
        bad.kernel_selection = rep.kernel_selection.clone();
        bad.service = Some(Counts::default());
        assert!(bad.validate().is_err());
        bad.service = Some(counts(&[
            (ServiceAdmitted, 2),
            (ServiceCompleted, 2),
            (ServiceFailed, 1),
        ]));
        assert!(bad.validate().is_err());
        bad.service = Some(counts(&[
            (ServiceAdmitted, 2),
            (ServiceWarmStarts, 1),
            (ServiceWarmFallbacks, 2),
        ]));
        assert!(bad.validate().is_err());
        // A corpus block with no activity, or with more fingerprint
        // comparisons than scenario runs, must not validate.
        bad.service = rep.service;
        bad.corpus = Some(Counts::default());
        assert!(bad.validate().is_err());
        bad.corpus = Some(counts(&[
            (CorpusScenariosRun, 1),
            (CorpusMatched, 1),
            (CorpusMismatched, 1),
        ]));
        assert!(bad.validate().is_err());
        // An inconsistent journal summary must not validate.
        rep.journal = Some(JournalBlock {
            events: 4,
            dropped: 0,
            by_kind: vec![("rank_death".to_string(), 2)],
        });
        assert!(rep.validate().is_err());
        // Nor a time-reversed series.
        rep.journal = None;
        rep.series.as_mut().unwrap().samples.reverse();
        assert!(rep.validate().is_err());
    }

    #[test]
    fn balance_block_validation() {
        registry::record("test/report/phase4", 1, 1, 0, 0, 0);
        let mut rep = TelemetryReport::from_current();
        // Absent block parses to None and validates.
        let back = TelemetryReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back.balance, None);
        back.validate().unwrap();
        // Ratio must agree with the busy-time vector.
        rep.balance = Some(BalanceReport {
            rank_busy_ms: vec![3.0, 1.0],
            imbalance_ratio: 1.2, // should be 1.5
            ..BalanceReport::default()
        });
        assert!(rep.validate().is_err());
        // from_busy_times computes the right ratio.
        let b = BalanceReport::from_busy_times(vec![3.0, 1.0], 0.0);
        assert!((b.imbalance_ratio - 1.5).abs() < 1e-12);
        rep.balance = Some(b);
        rep.validate().unwrap();
        // A sub-unity ratio is structurally impossible and rejected.
        rep.balance = Some(BalanceReport {
            rank_busy_ms: vec![],
            imbalance_ratio: 0.5,
            ..BalanceReport::default()
        });
        assert!(rep.validate().is_err());
    }

    #[test]
    fn from_current_always_carries_health_and_elasticity_blocks() {
        registry::record("test/report/phase3", 1, 1, 0, 0, 0);
        let rep = TelemetryReport::from_current();
        assert!(rep.health.is_some());
        assert!(rep.elasticity.is_some());
        // A legacy report without the blocks parses to None and still
        // validates (the --require-health gate is the caller's policy).
        let mut legacy = rep.clone();
        legacy.health = None;
        legacy.elasticity = None;
        let back = TelemetryReport::from_json(&legacy.to_json()).unwrap();
        assert_eq!(back.health, None);
        assert_eq!(back.elasticity, None);
        back.validate().unwrap();
    }

    #[test]
    fn validation_rejects_failed_exact_residual() {
        registry::record("test/report/phase2", 1, 1, 0, 0, 0);
        let mut rep = TelemetryReport::from_current();
        rep.residuals
            .push(ModelResidual::new("bad_exact", 100.0, 99.0, true));
        assert!(rep.validate().is_err());
    }

    #[test]
    fn warmup_stats_capture_cold_vs_warm_gap() {
        let mk = |it: usize, wall: f64, alloc: u64| ConvergencePoint {
            iteration: it,
            residual: if it == 0 { None } else { Some(0.1) },
            mixing: 0.5,
            wall_ms: wall,
            current: 0.0,
            alloc_bytes: alloc,
        };
        assert_eq!(WarmupStats::from_convergence(&[mk(0, 10.0, 100)]), None);
        let w = WarmupStats::from_convergence(&[mk(0, 10.0, 1000), mk(1, 2.0, 60), mk(2, 3.0, 40)])
            .unwrap();
        assert_eq!(w.cold_wall_ms, 10.0);
        assert!((w.warm_wall_ms - 2.5).abs() < 1e-12);
        assert!((w.wall_speedup - 4.0).abs() < 1e-12);
        assert_eq!(w.cold_alloc_bytes, 1000);
        assert_eq!(w.warm_alloc_bytes, 50);
        assert!((w.alloc_reduction - 0.95).abs() < 1e-12);
    }

    #[test]
    fn residual_handles_zero_model() {
        let r = ModelResidual::new("zero", 0.0, 0.0, true);
        assert_eq!(r.rel_error, 0.0);
        let r = ModelResidual::new("div", 1.0, 0.0, false);
        assert!(r.rel_error.is_infinite());
    }
}

//! Distributed GF+SSE iteration driver.
//!
//! One full iteration of the Fig. 2 loop executed on the thread world:
//! every rank *computes* the Green's functions for its own energy chunk
//! (momentum×energy parallelism of the GF phase), the communication-avoiding
//! exchange redistributes them into the energy×atom tiling, each rank runs
//! its local SSE, and the results gather on root. Unlike [`crate::schemes`]
//! (which reads pre-computed tensors to isolate the communication pattern),
//! this driver owns the whole pipeline — the distributed analogue of
//! `qt_core::scf`'s single iteration — and supervises the exchange: a rank
//! that dies mid-exchange is re-tiled around and the exchange retried.

use crate::comm::{run_world, LivenessConfig};
use crate::decomp::{ElasticTiling, OmenDecomp};
use crate::schemes::{elastic_sse_exchange_with, CommStats, SseDistContext};
use qt_core::device::Device;
use qt_core::gf::{self, ElectronSelfEnergy, GfConfig, PhononSelfEnergy};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::health::{CoverageReport, NumericalError, QuarantinedPoint};
use qt_core::params::SimParams;
use qt_core::sse;
use qt_linalg::Tensor;
use qt_telemetry::counters::{self, Counter};
use std::collections::BTreeSet;

/// Result of one distributed iteration.
pub struct DistIterationResult {
    pub sigma: ElectronSelfEnergy,
    pub pi: PhononSelfEnergy,
    /// Electrical current accumulated across ranks.
    pub current: f64,
    /// Total bytes moved in the SSE exchange.
    pub sse_bytes: u64,
    /// Full per-rank communication statistics of the SSE exchange.
    pub comm: CommStats,
}

/// Everything the GF phase produces: the inputs of the SSE exchange.
struct GfPhase {
    dh: Tensor,
    g_lesser: Tensor,
    g_greater: Tensor,
    d_lesser_pre: Tensor,
    d_greater_pre: Tensor,
    current: f64,
}

impl GfPhase {
    fn ctx<'a>(
        &'a self,
        p: &'a SimParams,
        dev: &'a Device,
        grids: &'a Grids,
    ) -> SseDistContext<'a> {
        SseDistContext {
            p,
            dev,
            grids,
            dh: &self.dh,
            g_lesser: &self.g_lesser,
            g_greater: &self.g_greater,
            d_lesser_pre: &self.d_lesser_pre,
            d_greater_pre: &self.d_greater_pre,
        }
    }
}

/// The GF phase: each rank computes its energy chunk. (Thread-world ranks
/// write disjoint slices; results are assembled into the global tensors
/// that seed the SSE exchange, mirroring how each MPI rank would hold its
/// slice in place.)
fn gf_phase(
    p: &SimParams,
    dev: &Device,
    em: &ElectronModel,
    pm: &PhononModel,
    grids: &Grids,
    cfg: &GfConfig,
    procs: usize,
) -> Result<GfPhase, NumericalError> {
    let dh = em.dh_tensor(dev);
    let dec = OmenDecomp::new(p, procs);
    let chunks: Vec<Result<(usize, gf::ElectronGf), NumericalError>> = run_world(procs, |comm| {
        let rank = comm.rank();
        let my_e = dec.energy.range(rank);
        // Solve only this rank's energies: narrow the grid.
        let mut local = *p;
        local.ne = my_e.len();
        let local_grids = Grids {
            energies: grids.energies[my_e.clone()].to_vec(),
            omegas: grids.omegas.clone(),
            kz: grids.kz.clone(),
            qz: grids.qz.clone(),
            de: grids.de,
        };
        let zeros = ElectronSelfEnergy::zeros(&local);
        gf::electron_gf_phase(dev, em, &local, &local_grids, &zeros, cfg).map(|g| (rank, g))
    });
    let mut g_lesser = Tensor::zeros(&[p.nkz, p.ne, p.na, p.norb, p.norb]);
    let mut g_greater = Tensor::zeros(&[p.nkz, p.ne, p.na, p.norb, p.norb]);
    let mut current = 0.0;
    for c in chunks {
        let (rank, egf) = c?;
        let my_e = dec.energy.range(rank);
        for k in 0..p.nkz {
            for (el, e) in my_e.clone().enumerate() {
                for a in 0..p.na {
                    g_lesser
                        .inner_mut(&[k, e, a])
                        .copy_from_slice(egf.g_lesser.inner(&[k, el, a]));
                    g_greater
                        .inner_mut(&[k, e, a])
                        .copy_from_slice(egf.g_greater.inner(&[k, el, a]));
                }
            }
        }
        current += egf.current;
    }
    // Phonon GF phase (serial here; its grid is small and its
    // parallelization is identical in kind).
    let pgf = gf::phonon_gf_phase(dev, pm, p, grids, &PhononSelfEnergy::zeros(p), cfg)?;
    let (dl, dg) = sse::preprocess_d(dev, p, &pgf);
    Ok(GfPhase {
        dh,
        g_lesser,
        g_greater,
        d_lesser_pre: dl,
        d_greater_pre: dg,
        current,
    })
}

/// Options of one distributed iteration: the elastic supervision loop, the
/// exchange's work stealing and, with feature `fault-inject`, the fault
/// plan its worlds run under.
#[derive(Clone, Debug)]
pub struct ElasticPolicy {
    /// Failure-detector configuration for the survivor worlds.
    pub live: LivenessConfig,
    /// Ceiling on [`CoverageReport::bad_fraction`]: the fraction of
    /// electron grid points whose backing distributed state may ride
    /// recovery. A death that would push past it is *not* recovered — its
    /// units are abandoned and the iteration completes degraded, with the
    /// abandoned tiles zero-filled.
    pub max_bad_fraction: f64,
    /// Hard bound on detect→retile→retry rounds (hang-proofing; a world
    /// can die at most once per original rank, so the default is ample).
    pub max_retiles: usize,
    /// Intra-iteration work stealing: idle ranks pull unstarted units from
    /// stragglers. Observables are bitwise identical either way; only the
    /// traffic (and so the exact byte models) changes.
    pub steal: bool,
    /// Deterministic fault schedule (drops, corruption, delays, a stalled
    /// rank, scheduled kills) for every exchange attempt. Kills are matched
    /// by original identity, so a rank dies at most once across retries and
    /// the recovery replays identically on every run.
    #[cfg(feature = "fault-inject")]
    pub faults: Option<crate::fault::FaultPlan>,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            live: LivenessConfig::default(),
            max_bad_fraction: qt_core::health::HealthPolicy::default().max_bad_fraction,
            max_retiles: 64,
            steal: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

/// Result of one elastic distributed iteration.
pub struct ElasticIterationResult {
    pub result: DistIterationResult,
    /// Electron-grid coverage. Quarantined entries mark the `(kz, E)`
    /// points whose backing GF-chunk state sat on a rank that died —
    /// whether the point then rode recovery (recomputed on a survivor,
    /// bitwise exact) or was zero-filled in a degraded completion.
    pub coverage: CoverageReport,
    /// True when the run completed with abandoned tiles (zero-filled
    /// Σ≷/Π≷ slices) instead of full recovery.
    pub degraded: bool,
    /// Original ids of the ranks that died, in detection order.
    pub deaths: Vec<usize>,
    /// Number of detect→retile→retry rounds the supervisor ran.
    pub retiles: usize,
    /// Work units migrated onto survivors across all retiles.
    pub migrated_units: usize,
}

/// Run one GF+SSE iteration distributed over the full `te × ta` tiling
/// (every rank owns its own tile); see [`distributed_iteration_tiled`].
#[allow(clippy::too_many_arguments)]
pub fn distributed_iteration_elastic(
    p: &SimParams,
    dev: &Device,
    em: &ElectronModel,
    pm: &PhononModel,
    grids: &Grids,
    cfg: &GfConfig,
    te: usize,
    ta: usize,
    policy: &ElasticPolicy,
) -> Result<ElasticIterationResult, NumericalError> {
    distributed_iteration_tiled(
        p,
        dev,
        em,
        pm,
        grids,
        cfg,
        &mut ElasticTiling::new(p, te, ta),
        policy,
    )
}

/// Run one GF+SSE iteration with elastic rank-failure recovery on a
/// *caller-provided* tiling — uniform ([`ElasticTiling::uniform`]),
/// weighted ([`ElasticTiling::weighted`]) or mid-recovery. This is also
/// the entry point of the adaptive load-balancing loop: deaths shrink the
/// tiling in place so the caller's tiling stays current across iterations,
/// and per-rank busy times and per-unit costs come back in
/// `result.comm.balance`.
///
/// The GF phase runs on the full original world (it communicates nothing)
/// and rank `r` solves RGF for its energy chunk (all kz), the paper's
/// momentum+energy decomposition. The SSE exchange runs under supervision:
/// each attempt executes the CA scheme over the current survivor set; a
/// detected death shrinks the tiling (only the dead rank's units migrate)
/// and the exchange retries on a fresh survivor world. A successful
/// recovery is *bitwise identical* to the fault-free run. When a death
/// would push the quarantined fraction past
/// [`ElasticPolicy::max_bad_fraction`], its units are abandoned instead and
/// the iteration completes in degraded mode with those tiles zero-filled
/// and reported in the coverage.
#[allow(clippy::too_many_arguments)]
pub fn distributed_iteration_tiled(
    p: &SimParams,
    dev: &Device,
    em: &ElectronModel,
    pm: &PhononModel,
    grids: &Grids,
    cfg: &GfConfig,
    tiling: &mut ElasticTiling,
    policy: &ElasticPolicy,
) -> Result<ElasticIterationResult, NumericalError> {
    let _span = qt_telemetry::Span::enter_global("dist/iteration_elastic");
    let procs = tiling.procs();
    let gfp = gf_phase(p, dev, em, pm, grids, cfg, procs)?;
    let ctx = gfp.ctx(p, dev, grids);
    let gf_dec = OmenDecomp::new(p, procs);
    let mut coverage = CoverageReport::full(p.nkz * p.ne);
    let mut quarantined_idx: BTreeSet<usize> = BTreeSet::new();
    let mut deaths: Vec<usize> = Vec::new();
    let mut retiles = 0usize;
    let mut migrated_units = 0usize;
    loop {
        let (result, degraded) = if tiling.world_size() == 0 || retiles > policy.max_retiles {
            // Nobody left to compute (or the supervisor hit its retry
            // bound): complete fully degraded with all-zero Σ≷/Π≷.
            let result = DistIterationResult {
                sigma: ElectronSelfEnergy::zeros(p),
                pi: PhononSelfEnergy::zeros(p),
                current: gfp.current,
                sse_bytes: 0,
                comm: CommStats::default(),
            };
            (result, true)
        } else {
            match elastic_sse_exchange_with(&ctx, tiling, policy) {
                Ok((sigma, pi, stats)) => {
                    let result = DistIterationResult {
                        sigma,
                        pi,
                        current: gfp.current,
                        sse_bytes: stats.world_bytes,
                        comm: stats,
                    };
                    (result, tiling.live_units().len() < procs)
                }
                Err(suspects) => {
                    retiles += 1;
                    counters::add(Counter::ElasticRetileEvents, 1);
                    let mut moved_this_round: u64 = 0;
                    for dead in suspects {
                        if !tiling.is_survivor(dead) {
                            continue; // already handled in an earlier round
                        }
                        deaths.push(dead);
                        counters::add(Counter::ElasticRankDeaths, 1);
                        qt_telemetry::journal::emit(qt_telemetry::EventKind::RankDeath {
                            rank: dead as u64,
                        });
                        // Quarantine the electron grid points whose GF-chunk
                        // state sat on the dead rank (deduplicated: a unit
                        // that migrates and loses its new host again counts
                        // once).
                        for u in tiling.units_of(dead) {
                            for e in gf_dec.energy.range(u) {
                                for k in 0..p.nkz {
                                    let grid_index = k * p.ne + e;
                                    if quarantined_idx.insert(grid_index) {
                                        coverage.quarantined.push(QuarantinedPoint {
                                            grid_index,
                                            error: NumericalError::RankLoss { rank: dead },
                                        });
                                    }
                                }
                            }
                        }
                        if coverage.bad_fraction() <= policy.max_bad_fraction {
                            let moved = tiling.remove_rank(dead).len();
                            migrated_units += moved;
                            moved_this_round += moved as u64;
                            counters::add(Counter::ElasticMigratedTiles, moved as u64);
                        } else {
                            // Too much of the grid would ride recovery: give
                            // the units up instead of migrating them.
                            tiling.abandon_rank(dead);
                        }
                    }
                    qt_telemetry::journal::emit(qt_telemetry::EventKind::Retile {
                        moved_units: moved_this_round,
                    });
                    continue;
                }
            }
        };
        return Ok(ElasticIterationResult {
            result,
            coverage,
            degraded,
            deaths,
            retiles,
            migrated_units,
        });
    }
}

/// Re-partition `tiling` from measured per-unit costs when the measured
/// busy-time imbalance exceeds `threshold`. Uses the bitwise-safe
/// migration path ([`ElasticTiling::rebalance`]): only the unit → rank
/// map moves, never the tile geometry, so the next iteration's
/// observables are unchanged. Returns the units that moved (empty when
/// balanced enough) and feeds the rebalance telemetry counters.
pub fn maybe_rebalance(
    tiling: &mut ElasticTiling,
    balance: &crate::schemes::BalanceStats,
    threshold: f64,
) -> Vec<usize> {
    if balance.imbalance_ratio() <= threshold {
        return Vec::new();
    }
    let moved = tiling.rebalance(&balance.unit_secs);
    if !moved.is_empty() {
        counters::add(Counter::BalanceRebalanceEvents, 1);
        counters::add(Counter::BalanceMovedUnits, moved.len() as u64);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_iteration_matches_serial() {
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 12,
            nw: 2,
            na: 12,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        // Serial reference: one GF phase + serial SSE.
        let egf =
            gf::electron_gf_phase(&dev, &em, &p, &grids, &ElectronSelfEnergy::zeros(&p), &cfg)
                .unwrap();
        let pgf =
            gf::phonon_gf_phase(&dev, &pm, &p, &grids, &PhononSelfEnergy::zeros(&p), &cfg).unwrap();
        let (dl, dg) = sse::preprocess_d(&dev, &p, &pgf);
        let dh = em.dh_tensor(&dev);
        let inputs = sse::SseInputs {
            dev: &dev,
            p: &p,
            grids: &grids,
            dh: &dh,
            g_lesser: &egf.g_lesser,
            g_greater: &egf.g_greater,
            d_lesser_pre: &dl,
            d_greater_pre: &dg,
        };
        let serial_sigma = sse::sigma(&inputs, sse::SseVariant::Dace);
        // Distributed on a 2×2 grid.
        let policy = ElasticPolicy::default();
        let dist = distributed_iteration_elastic(&p, &dev, &em, &pm, &grids, &cfg, 2, 2, &policy)
            .unwrap()
            .result;
        let rel = serial_sigma.lesser.max_abs_diff(&dist.sigma.lesser)
            / serial_sigma.lesser.norm().max(1e-30);
        assert!(rel < 1e-10, "distributed iteration Σ< rel {rel}");
        // Currents: distributed GF accumulates the same Meir–Wingreen sum.
        assert!(
            (dist.current - egf.current).abs() / egf.current.abs().max(1e-30) < 1e-10,
            "current {} vs serial {}",
            dist.current,
            egf.current
        );
        assert!(dist.sse_bytes > 0);
    }

    #[test]
    fn runner_reports_per_rank_volumes_matching_model() {
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 12,
            nw: 2,
            na: 12,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let (te, ta) = (2, 2);
        let policy = ElasticPolicy::default();
        let dist = distributed_iteration_elastic(&p, &dev, &em, &pm, &grids, &cfg, te, ta, &policy)
            .unwrap()
            .result;
        assert_eq!(dist.comm.rank_sent.len(), te * ta);
        assert_eq!(dist.comm.rank_sent.iter().sum::<u64>(), dist.sse_bytes);
        assert_eq!(dist.comm.world_bytes, dist.sse_bytes);
        // The per-rank sends match the exact closed form of the scheme.
        let halo = dev.max_neighbor_index_distance();
        let model =
            crate::volume::dace_elastic_rank_sent_bytes(&p, halo, &ElasticTiling::new(&p, te, ta));
        assert_eq!(dist.comm.rank_sent, model);
    }

    #[test]
    fn fault_free_iteration_is_clean_and_independent_of_the_survivor_set() {
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 12,
            nw: 2,
            na: 12,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let policy = ElasticPolicy::default();
        let el =
            distributed_iteration_elastic(&p, &dev, &em, &pm, &grids, &cfg, 2, 2, &policy).unwrap();
        assert!(!el.degraded);
        assert!(el.deaths.is_empty());
        assert_eq!(el.retiles, 0);
        assert_eq!(el.migrated_units, 0);
        assert!(el.coverage.is_full());
        // The same 2×2 unit grid on two ranks (two units each) must
        // reproduce the full-world answer bit for bit.
        let mut halved = ElasticTiling::uniform(&p, 2, 2, 2);
        let two =
            distributed_iteration_tiled(&p, &dev, &em, &pm, &grids, &cfg, &mut halved, &policy)
                .unwrap();
        assert!(!two.degraded);
        assert_eq!(el.result.current, two.result.current);
        assert_eq!(
            el.result.sigma.lesser.as_slice(),
            two.result.sigma.lesser.as_slice()
        );
        assert_eq!(
            el.result.pi.greater.as_slice(),
            two.result.pi.greater.as_slice()
        );
        assert_eq!(two.result.comm.rank_sent.len(), 2);
    }

    #[test]
    fn tiled_iteration_rebalance_keeps_results_bitwise_stable() {
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 12,
            nw: 2,
            na: 12,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let dev = Device::skewed(&p, 1, 1);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let policy = ElasticPolicy::default();
        let mut tiling = ElasticTiling::uniform(&p, 2, 2, 4);
        let first =
            distributed_iteration_tiled(&p, &dev, &em, &pm, &grids, &cfg, &mut tiling, &policy)
                .unwrap();
        assert!(!first.degraded);
        let bal = first
            .result
            .comm
            .balance
            .as_ref()
            .expect("balance measured");
        assert_eq!(bal.rank_busy_secs.len(), 4);
        // Drive the re-tiling decision off a deterministic skew instead of
        // wall-clock noise: one rank 4x busier, its unit 8x costlier.
        let skew = crate::schemes::BalanceStats {
            rank_busy_secs: vec![4.0, 1.0, 1.0, 1.0],
            unit_secs: vec![1.0, 8.0, 1.0, 1.0],
            ..Default::default()
        };
        let events0 = counters::total(Counter::BalanceRebalanceEvents);
        assert!(maybe_rebalance(&mut tiling, &skew, 10.0).is_empty());
        let moved = maybe_rebalance(&mut tiling, &skew, 1.5);
        assert!(!moved.is_empty(), "4.0/1.75 imbalance must trigger a move");
        assert!(counters::total(Counter::BalanceRebalanceEvents) > events0);
        // The re-tiled iteration must reproduce the observables bit for bit.
        let second =
            distributed_iteration_tiled(&p, &dev, &em, &pm, &grids, &cfg, &mut tiling, &policy)
                .unwrap();
        assert_eq!(
            first.result.sigma.lesser.as_slice(),
            second.result.sigma.lesser.as_slice()
        );
        assert_eq!(
            first.result.sigma.greater.as_slice(),
            second.result.sigma.greater.as_slice()
        );
        assert_eq!(
            first.result.pi.lesser.as_slice(),
            second.result.pi.lesser.as_slice()
        );
        assert_eq!(
            first.result.pi.greater.as_slice(),
            second.result.pi.greater.as_slice()
        );
        assert_eq!(first.result.current, second.result.current);
        assert!(second.result.comm.balance.is_some());
    }

    #[test]
    fn energy_chunking_is_exact() {
        // The GF phase must be bitwise-independent of how energies are
        // chunked: each (kz, E) point is solved in isolation.
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 10,
            nw: 2,
            na: 8,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let policy = ElasticPolicy::default();
        let run = |te| {
            distributed_iteration_elastic(&p, &dev, &em, &pm, &grids, &cfg, te, 2, &policy)
                .unwrap()
                .result
        };
        let (a, b) = (run(1), run(5));
        let rel = a.sigma.lesser.max_abs_diff(&b.sigma.lesser) / a.sigma.lesser.norm().max(1e-30);
        assert!(rel < 1e-10, "chunking must not change results: {rel}");
    }
}

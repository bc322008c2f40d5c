//! The one adapter between the benchmark and the program under test.
//!
//! Every call into the repository's crates goes through this file, and the
//! program types the workloads hold are re-exported from here. When an entry
//! point is folded or renamed, this is the only file of the benchmark that
//! changes. The entry points used are the ones the planned consolidation
//! keeps: `run_scf_with`, `rgf_with_selector`, the elastic exchange,
//! `omen_scheme`, `Service::submit` and `qt_scenario::load`.

use qt_core::boundary::{self, Side};
use qt_core::gf::{self, PhononSelfEnergy};
use qt_core::health::NumericalError;
use qt_core::scf::{run_scf_with, ScfOptions};
use qt_core::sse::{self, SseInputs, SseVariant};
use qt_dist::schemes::SseDistContext;
use qt_linalg::{c64, BlockTridiag, Matrix, Tensor};
use qt_serve::{ServeConfig, SweepRequest, SweepStatus, VariantSpec};

pub use qt_core::gf::ElectronSelfEnergy;
pub use qt_core::params::SimParams;
pub use qt_core::scf::{ScfConfig, ScfResult, Simulation};
pub use qt_scenario::BuiltScenario;
pub use qt_serve::{PointResult, Service, SweepTicket};
pub use qt_telemetry::json::Json;

/// Electron energy window (eV) of every built-in device.
const EMIN: f64 = -1.2;
const EMAX: f64 = 1.2;

/// The ROADMAP `profile` device: RGF blocks of 3 atoms × 2 orbitals.
pub fn profile_params() -> SimParams {
    SimParams {
        nkz: 2,
        nqz: 2,
        ne: 24,
        nw: 3,
        na: 12,
        nb: 3,
        norb: 2,
        bnum: 4,
    }
}

/// The device variant `reproduce serve` registers.
pub fn serve_params() -> SimParams {
    SimParams {
        nkz: 2,
        nqz: 2,
        ne: 10,
        nw: 2,
        na: 8,
        nb: 3,
        norb: 2,
        bnum: 4,
    }
}

pub fn simulation(p: SimParams) -> Simulation {
    Simulation::new(p, EMIN, EMAX)
}

/// Default solver settings with a raised iteration cap, so "did not
/// converge" means a real failure rather than a tight budget.
pub fn scf_config(max_iterations: usize, tolerance: f64) -> ScfConfig {
    ScfConfig {
        max_iterations,
        tolerance,
        ..ScfConfig::default()
    }
}

/// `cfg` with the contacts biased to `mu = ±bias/2`, as the service does.
pub fn at_bias(cfg: &ScfConfig, bias: f64) -> ScfConfig {
    let mut c = *cfg;
    c.gf.contacts.mu_left = bias / 2.0;
    c.gf.contacts.mu_right = -bias / 2.0;
    c
}

/// One cold SCF solve.
pub fn solve(sim: &Simulation, cfg: &ScfConfig) -> Result<ScfResult, String> {
    run_scf_with(sim, cfg, ScfOptions::default()).map_err(|e| e.to_string())
}

pub fn final_current(r: &ScfResult) -> f64 {
    r.current_history.last().copied().unwrap_or(f64::NAN)
}

pub fn load_scenario(doc: &str) -> Result<BuiltScenario, String> {
    qt_scenario::load(doc).map_err(|e| e.to_string())
}

/// The scenario's solver settings at `bias`, at its own temperature.
pub fn scenario_config(b: &BuiltScenario, bias: f64) -> ScfConfig {
    b.config_at(bias, b.scenario.contacts.temperature)
}

pub fn start_service(
    p: SimParams,
    cfg: ScfConfig,
    workers: usize,
    pool_slots: usize,
) -> Result<Service, String> {
    let variant = VariantSpec {
        params: p,
        emin: EMIN,
        emax: EMAX,
        cfg,
    };
    let serve = ServeConfig {
        workers,
        pool_slots,
        ..ServeConfig::default()
    };
    Service::start(vec![variant], serve).map_err(|e| e.to_string())
}

pub fn submit(svc: &Service, biases: Vec<f64>) -> Result<SweepTicket, String> {
    svc.submit(SweepRequest::new(0, biases))
        .map_err(|e| format!("refused: {e}"))
}

pub fn await_points(t: SweepTicket) -> Result<Vec<PointResult>, String> {
    match t.wait() {
        Some(resp) => match resp.status {
            SweepStatus::Completed { points } => Ok(points),
            other => Err(format!("request {} not completed: {other:?}", resp.id)),
        },
        None => Err("service dropped the request".into()),
    }
}

pub fn shutdown(svc: Service) {
    svc.shutdown();
}

/// What one distributed GF+SSE iteration returned, with the exact byte
/// count its tiling must produce.
pub struct CaIteration {
    pub sigma: ElectronSelfEnergy,
    pub bytes: u64,
    pub expected_bytes: u64,
    pub clean: bool,
}

/// One GF+SSE iteration with the elastic CA exchange on a `te × ta` thread
/// world (zero scattering self-energy in its GF phase).
pub fn ca_iteration(
    sim: &Simulation,
    cfg: &ScfConfig,
    te: usize,
    ta: usize,
) -> Result<CaIteration, String> {
    let out = qt_dist::distributed_iteration_elastic(
        &sim.p,
        &sim.dev,
        &sim.em,
        &sim.pm,
        &sim.grids,
        &cfg.gf,
        te,
        ta,
        &qt_dist::ElasticPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(CaIteration {
        bytes: out.result.sse_bytes,
        expected_bytes: ca_expected_bytes(sim, te, ta),
        clean: !out.degraded && out.deaths.is_empty(),
        sigma: out.result.sigma,
    })
}

/// The exact byte model of the elastic CA exchange at full tiling.
pub fn ca_expected_bytes(sim: &Simulation, te: usize, ta: usize) -> u64 {
    let tiling = qt_dist::ElasticTiling::new(&sim.p, te, ta);
    qt_dist::volume::dace_elastic_measured_bytes(
        &sim.p,
        sim.dev.max_neighbor_index_distance(),
        &tiling,
    )
}

/// Serial reference of [`ca_iteration`]: the same zero-self-energy GF phase
/// followed by the local `sse::sigma`.
pub fn serial_sigma_reference(
    sim: &Simulation,
    cfg: &ScfConfig,
) -> Result<ElectronSelfEnergy, String> {
    let p = &sim.p;
    let egf = gf::electron_gf_phase(
        &sim.dev,
        &sim.em,
        p,
        &sim.grids,
        &ElectronSelfEnergy::zeros(p),
        &cfg.gf,
    )
    .map_err(|e| e.to_string())?;
    let pgf = gf::phonon_gf_phase(
        &sim.dev,
        &sim.pm,
        p,
        &sim.grids,
        &PhononSelfEnergy::zeros(p),
        &cfg.gf,
    )
    .map_err(|e| e.to_string())?;
    let (dl, dg) = sse::preprocess_d(&sim.dev, p, &pgf);
    let inputs = SseInputs {
        dev: &sim.dev,
        p,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    Ok(sse::sigma(&inputs, cfg.variant))
}

/// Largest relative deviation of Σ< and Σ> (max-abs over norm), the measure
/// the distributed-vs-serial test of `qt-dist` uses.
pub fn sigma_rel_diff(a: &ElectronSelfEnergy, b: &ElectronSelfEnergy) -> f64 {
    let rel = |x: &Tensor, y: &Tensor| x.max_abs_diff(y) / x.norm().max(1e-30);
    rel(&a.lesser, &b.lesser).max(rel(&a.greater, &b.greater))
}

// ---- Counters the program exports ---------------------------------------

/// Turn the program's telemetry (spans, hot-section timers) on or off.
pub fn set_telemetry(on: bool) {
    qt_telemetry::set_enabled(on);
}

pub fn total_flops() -> u64 {
    qt_telemetry::counters::total_flops()
}

pub fn boundary_hits_misses() -> (u64, u64) {
    (
        qt_telemetry::counters::total_boundary_hits(),
        qt_telemetry::counters::total_boundary_misses(),
    )
}

/// GEMM packing and macro-kernel busy nanoseconds (timed only while the
/// telemetry is on).
pub fn gemm_pack_kernel_ns() -> (u64, u64) {
    let s = qt_telemetry::counters::gemm_split();
    (s.pack_ns, s.kernel_ns)
}

/// Flops of one `sse::sigma` call with the DaCe kernel, by exact count.
pub fn sse_sigma_exact_flops(sim: &Simulation) -> u64 {
    qt_core::flops::sse_dace_flops_exact(&sim.p, &sim.dev)
}

// ---- Ceilings measured in the same process --------------------------------

/// Same-run kernel ceilings in flop/s.
pub struct Ceilings {
    /// Blocked GEMM on large square blocks (`calibrate`, class `rgf_block`).
    pub gemm_peak: f64,
    /// Fused DaCe window GEMM of the SSE kernel (class `dace_wide`).
    pub sse_window: f64,
    /// Blocked GEMM at the workload's RGF block size (`calibrate_kernels`).
    pub gemm_at_block: f64,
    /// CSR × dense at the workload's block size and coupling density.
    pub csr_at_block: f64,
    pub block_size: usize,
    pub coupling_density: f64,
}

pub fn ceilings(sim: &Simulation) -> Ceilings {
    let cal = qt_model::calibrate::calibrate();
    let class = |name: &str| {
        cal.classes
            .iter()
            .find(|c| c.class.name == name)
            .map_or(f64::NAN, |c| c.blocked_flops)
    };
    let bs = rgf_block_size(sim);
    let density = sim.em.coupling_density(&sim.dev);
    let k = qt_model::calibrate::calibrate_kernels(bs, density);
    Ceilings {
        gemm_peak: class("rgf_block"),
        sse_window: class("dace_wide"),
        gemm_at_block: k.dense_rate,
        csr_at_block: k.sparse_rate,
        block_size: bs,
        coupling_density: density,
    }
}

// ---- Layers called in isolation by the traced run ---------------------------

/// Order of the electron RGF blocks (atoms per slab × orbitals).
fn rgf_block_size(sim: &Simulation) -> usize {
    sim.dev.atoms_per_slab * sim.p.norb
}

/// Deterministic dense operands of order `n` for the GEMM layer.
pub fn gemm_operands(n: usize) -> (Matrix, Matrix, Matrix) {
    let f = |s: usize| {
        Matrix::from_fn(n, n, |i, j| {
            let x = ((i * 31 + j * 17 + s) % 97) as f64 / 97.0 - 0.5;
            c64(x, 0.5 - x)
        })
    };
    (f(1), f(2), Matrix::zeros(n, n))
}

pub fn gemm(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    qt_linalg::gemm::gemm(a, b, out);
}

/// The retarded system `A = z·S − H − Σᴿ_contacts` of one `(kz, E)` electron
/// point and its contact Σ<, assembled as the GF phase does (scattering
/// self-energies add to the diagonal only and do not change the RGF cost).
pub struct RgfSystem {
    a: BlockTridiag,
    sigma_lesser: Vec<Matrix>,
}

pub fn rgf_system(sim: &Simulation, cfg: &ScfConfig, k: usize, e: usize) -> RgfSystem {
    let g = &cfg.gf;
    let h = sim.em.hamiltonian(&sim.dev, sim.grids.kz[k]);
    let s = sim.em.overlap_matrix(&sim.dev, sim.grids.kz[k]);
    let energy = sim.grids.energies[e];
    let z_dev = c64(energy, g.device_eta);
    let fill = |sb: &Matrix, hb: &Matrix| {
        let mut m = sb.clone();
        for (o, hv) in m.as_mut_slice().iter_mut().zip(hb.as_slice()) {
            *o = *o * z_dev - *hv;
        }
        m
    };
    let nbk = h.num_blocks();
    let diag = (0..nbk).map(|n| fill(s.diag(n), h.diag(n))).collect();
    let upper = (0..nbk - 1).map(|n| fill(s.upper(n), h.upper(n))).collect();
    let lower = (0..nbk - 1).map(|n| fill(s.lower(n), h.lower(n))).collect();
    let mut a = BlockTridiag::from_blocks(diag, upper, lower);
    let (sig_l, sig_r, _) = contact_pair(sim, cfg, k, e).expect("contact self-energies");
    *a.diag_mut(0) -= &sig_l;
    *a.diag_mut(nbk - 1) -= &sig_r;
    let bs = a.block_size();
    let mut sigma_lesser: Vec<Matrix> = (0..nbk).map(|_| Matrix::zeros(bs, bs)).collect();
    let f_l = 1.0; // fully occupied left contact: the RGF cost is occupation-blind
    sigma_lesser[0] = boundary::electron_lesser_greater(&sig_l, f_l).0;
    RgfSystem { a, sigma_lesser }
}

/// One `rgf_with_selector` solve with the workload's strategy and selector.
pub fn rgf(sim: &Simulation, cfg: &ScfConfig, sys: &RgfSystem) -> Result<(), String> {
    let out = qt_core::rgf::rgf_with_selector(
        &sys.a,
        &sys.sigma_lesser,
        cfg.gf.strategy,
        Some(&sim.kernel_selector_e),
    )
    .map_err(|e| format!("{e:?}"))?;
    out.recycle();
    Ok(())
}

/// Both contact self-energies of one electron point by Sancho–Rubio
/// decimation; returns them with the decimation iterations spent.
pub fn contact_pair(
    sim: &Simulation,
    cfg: &ScfConfig,
    k: usize,
    e: usize,
) -> Result<(Matrix, Matrix, usize), String> {
    let g = &cfg.gf;
    let h = sim.em.hamiltonian(&sim.dev, sim.grids.kz[k]);
    let s = sim.em.overlap_matrix(&sim.dev, sim.grids.kz[k]);
    let nbk = h.num_blocks();
    let energy = sim.grids.energies[e];
    let z_l = c64(energy - g.contacts.shift_left, g.eta);
    let z_r = c64(energy - g.contacts.shift_right, g.eta);
    let l = boundary::surface_self_energy(
        z_l,
        h.diag(0),
        h.upper(0),
        s.diag(0),
        s.upper(0),
        Side::Left,
        &g.boundary,
    )
    .map_err(|e| e.to_string())?;
    let r = boundary::surface_self_energy(
        z_r,
        h.diag(nbk - 1),
        h.upper(nbk - 2),
        s.diag(nbk - 1),
        s.upper(nbk - 2),
        Side::Right,
        &g.boundary,
    )
    .map_err(|e| e.to_string())?;
    Ok((l.sigma, r.sigma, l.iterations + r.iterations))
}

/// Whether [`contact_pair`] at electron point `(k, e)` gives, bit for bit,
/// the Σᴿ pair the simulation's boundary cache holds for that point (false
/// when the slot is empty). The isolated RGF and boundary inputs copy the
/// GF phase's assembly; this catches the copy falling out of step.
pub fn contacts_match_cache(
    sim: &Simulation,
    cfg: &ScfConfig,
    k: usize,
    e: usize,
) -> Result<bool, String> {
    let (l, r, _) = contact_pair(sim, cfg, k, e)?;
    let view = sim.boundary.view();
    // A failing fill leaves an empty slot empty: the probe never writes.
    let probe = || {
        Err(NumericalError::BoundaryNonConvergence {
            iters: 0,
            residual: f64::NAN,
        })
    };
    Ok(view
        .electron(k * sim.p.ne + e, probe)
        .is_ok_and(|(cl, cr)| cl.as_slice() == l.as_slice() && cr.as_slice() == r.as_slice()))
}

/// Electron points `(kz, E)` of one GF phase.
pub fn electron_points(sim: &Simulation) -> usize {
    sim.p.nkz * sim.p.ne
}

/// GF phases with the workload's converged self-energies, replaying the
/// simulation's boundary cache as the SCF loop does.
pub fn electron_gf(sim: &Simulation, cfg: &ScfConfig, r: &ScfResult) -> Result<(), String> {
    gf::electron_gf_phase_cached(
        &sim.dev,
        &sim.em,
        &sim.p,
        &sim.grids,
        &r.sigma,
        &cfg.gf,
        Some(&sim.boundary),
        Some(&sim.kernel_selector_e),
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

pub fn phonon_gf(sim: &Simulation, cfg: &ScfConfig, r: &ScfResult) -> Result<(), String> {
    gf::phonon_gf_phase_cached(
        &sim.dev,
        &sim.pm,
        &sim.p,
        &sim.grids,
        &r.pi,
        &cfg.gf,
        Some(&sim.boundary),
        Some(&sim.kernel_selector_ph),
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// The SSE inputs of a converged (or partly converged) solve: its Green's
/// functions and the preprocessed phonon propagators.
pub struct SseState {
    g_lesser: Tensor,
    g_greater: Tensor,
    d_lesser: Tensor,
    d_greater: Tensor,
}

pub fn preprocess_d(sim: &Simulation, r: &ScfResult) -> (Tensor, Tensor) {
    sse::preprocess_d(&sim.dev, &sim.p, &r.phonon)
}

pub fn sse_state(sim: &Simulation, r: &ScfResult) -> SseState {
    let (d_lesser, d_greater) = preprocess_d(sim, r);
    SseState {
        g_lesser: r.electron.g_lesser.clone(),
        g_greater: r.electron.g_greater.clone(),
        d_lesser,
        d_greater,
    }
}

fn sse_inputs<'a>(sim: &'a Simulation, st: &'a SseState) -> SseInputs<'a> {
    SseInputs {
        dev: &sim.dev,
        p: &sim.p,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &st.g_lesser,
        g_greater: &st.g_greater,
        d_lesser_pre: &st.d_lesser,
        d_greater_pre: &st.d_greater,
    }
}

pub fn sse_sigma(sim: &Simulation, st: &SseState) {
    std::hint::black_box(sse::sigma(&sse_inputs(sim, st), SseVariant::Dace));
}

pub fn sse_pi(sim: &Simulation, st: &SseState) {
    std::hint::black_box(sse::pi(&sse_inputs(sim, st), SseVariant::Dace));
}

fn dist_context<'a>(sim: &'a Simulation, st: &'a SseState) -> SseDistContext<'a> {
    SseDistContext {
        p: &sim.p,
        dev: &sim.dev,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &st.g_lesser,
        g_greater: &st.g_greater,
        d_lesser_pre: &st.d_lesser,
        d_greater_pre: &st.d_greater,
    }
}

/// Traffic of one exchange: total bytes, the largest per-rank receive, and
/// the busy-time imbalance (max/mean) when the scheme measures it.
pub struct ExchangeStats {
    pub bytes: u64,
    pub max_rank_recv: u64,
    pub imbalance: f64,
}

/// The elastic CA exchange of Σ≷/Π≷ on the full `te × ta` tiling.
pub fn elastic_exchange(
    sim: &Simulation,
    st: &SseState,
    te: usize,
    ta: usize,
) -> Result<ExchangeStats, String> {
    let tiling = qt_dist::ElasticTiling::new(&sim.p, te, ta);
    let live = qt_dist::LivenessConfig::default();
    let (_, _, stats) = qt_dist::elastic_sse_exchange(&dist_context(sim, st), &tiling, &live)
        .map_err(|dead| format!("ranks {dead:?} died in a fault-free exchange"))?;
    Ok(ExchangeStats {
        bytes: stats.world_bytes,
        max_rank_recv: stats.max_rank_recv,
        imbalance: stats
            .balance
            .as_ref()
            .map_or(f64::NAN, |b| b.imbalance_ratio()),
    })
}

/// The paper's OMEN baseline exchange on `procs` ranks.
pub fn omen_exchange(sim: &Simulation, st: &SseState, procs: usize) -> u64 {
    let (_, _, stats) = qt_dist::schemes::omen_scheme(&dist_context(sim, st), procs);
    stats.world_bytes
}

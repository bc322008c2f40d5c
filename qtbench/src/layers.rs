//! The traced run's per-layer numbers.
//!
//! Layers the benchmark calls directly (scenario load, service submit, the
//! distributed iteration) are timed around those calls inside the workload
//! loop. Layers nested inside `run_scf_with` cannot be wrapped from outside,
//! so after the loop each one's public function is timed in isolation on the
//! workload's own inputs, repeated, and its share of an iteration is derived
//! from the loop's measured iteration time. Counts come from the counters
//! the program exports.

use crate::program::{self as prog, ScfConfig, ScfResult, Simulation};
use crate::record::{self, mean, median, ratio, Json};
use crate::Run;
use std::time::{Duration, Instant};

/// Budget of one isolated layer timing.
const LAYER_BUDGET: Duration = Duration::from_millis(250);

/// Program counters accumulated over traced operations.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub pack_ns: f64,
    pub kernel_ns: f64,
    pub boundary_hits: f64,
    pub boundary_misses: f64,
    pub cpu_s: f64,
    pub wall_s: f64,
    at: Option<Instant>,
}

impl Counters {
    pub fn now() -> Counters {
        let (pack, kernel) = prog::gemm_pack_kernel_ns();
        let (hits, misses) = prog::boundary_hits_misses();
        Counters {
            pack_ns: pack as f64,
            kernel_ns: kernel as f64,
            boundary_hits: hits as f64,
            boundary_misses: misses as f64,
            cpu_s: record::process_cpu_secs(),
            wall_s: 0.0,
            at: Some(Instant::now()),
        }
    }

    /// Time since this snapshot was taken.
    pub fn age(&self) -> Duration {
        self.at.map_or(Duration::ZERO, |t| t.elapsed())
    }

    /// Add what the counters moved since `before`.
    pub fn add_since(&mut self, before: &Counters) {
        let now = Counters::now();
        self.pack_ns += now.pack_ns - before.pack_ns;
        self.kernel_ns += now.kernel_ns - before.kernel_ns;
        self.boundary_hits += now.boundary_hits - before.boundary_hits;
        self.boundary_misses += now.boundary_misses - before.boundary_misses;
        self.cpu_s += now.cpu_s - before.cpu_s;
        self.wall_s += before.age().as_secs_f64();
    }
}

/// Metrics that come straight from the traced loop: counters, process CPU
/// use and the tracing overhead.
pub fn loop_metrics(run: &mut Run) {
    let c = run.traced;
    let gemm_ns = c.pack_ns + c.kernel_ns;
    let rec = &mut run.rec;
    rec.metric("linalg.gemm.pack_share", ratio(c.pack_ns, gemm_ns), "ratio");
    rec.metric(
        "linalg.gemm.solve_share",
        ratio(gemm_ns / 1e9, c.cpu_s),
        "ratio",
    );
    let lookups = c.boundary_hits + c.boundary_misses;
    rec.metric(
        "core.boundary.hit_ratio",
        ratio(c.boundary_hits, lookups),
        "ratio",
    );
    let util = ratio(c.cpu_s, c.wall_s * record::nproc() as f64);
    rec.metric("process.cpu_util", util, "ratio");
    let traced = median(rec.samples("traced.request_ms"));
    let plain = median(rec.samples("request_ms"));
    rec.metric("telemetry.overhead_share", traced / plain - 1.0, "ratio");
}

/// SCF-layer metrics from the solves observed in the traced operations.
pub fn scf_metrics(run: &mut Run) {
    let rec = &mut run.rec;
    let solve: f64 = rec.samples("traced.solve_s").iter().sum();
    let in_iters: f64 = rec.samples("traced.trajectory_s").iter().sum();
    let iters = mean(rec.samples("traced.iterations"));
    let cold = median(rec.samples("traced.cold_iter_ms"));
    let warm = median(rec.samples("traced.warm_iter_ms"));
    let fresh = mean(rec.samples("traced.ws_fresh_warm"));
    rec.metric("core.scf.iters_per_solve", iters, "count");
    rec.metric("core.scf.cold_iter_ms", cold, "ms");
    rec.metric("core.scf.warm_iter_ms", warm, "ms");
    rec.metric(
        "core.scf.unattributed_share",
        1.0 - ratio(in_iters, solve),
        "ratio",
    );
    rec.metric("core.scf.ws_fresh_warm", fresh, "count");
}

/// Record one traced solve's trajectory for [`scf_metrics`].
pub fn observe_traced_solve(run: &mut Run, r: &ScfResult, solve_s: f64) {
    let rec = &mut run.rec;
    rec.sample("traced.solve_s", solve_s);
    rec.sample("traced.iterations", r.iterations as f64);
    let traj: f64 = r.trajectory.iter().map(|t| t.wall_seconds).sum();
    rec.sample("traced.trajectory_s", traj);
    if let Some((first, rest)) = r.trajectory.split_first() {
        rec.sample("traced.cold_iter_ms", first.wall_seconds * 1e3);
        for t in rest {
            rec.sample("traced.warm_iter_ms", t.wall_seconds * 1e3);
        }
        rec.sample(
            "traced.ws_fresh_warm",
            rest.iter().map(|t| t.ws_fresh as f64).sum(),
        );
    }
}

/// Time one isolated call repeatedly, under one span; returns the median
/// per-call time in seconds.
pub fn isolated(run: &Run, name: &'static str, f: impl FnMut()) -> f64 {
    let _s = run.tracer.span(name, 0, None);
    median(&record::time_reps(LAYER_BUDGET, 5, f))
}

/// Inputs of the isolated layer timings: a simulation, its solver settings
/// and a solve on it whose self-energies and Green's functions feed the
/// GF, SSE and exchange layers.
pub struct LayerInputs<'a> {
    pub sim: &'a Simulation,
    pub cfg: &'a ScfConfig,
    pub state: &'a ScfResult,
    /// Median iteration time (ms) of the workload's own loop.
    pub iter_ms: f64,
    /// `(te, ta)` of a thread world on which to also time the CA exchange
    /// of this state's Σ≷/Π≷.
    pub exchange: Option<(usize, usize)>,
}

/// GEMM, RGF, boundary, GF, SSE and (distributed workloads) exchange layers
/// in isolation, with the SSE flop count checked against its exact model.
pub fn isolated_layers(run: &mut Run, li: &LayerInputs<'_>, ceil: &prog::Ceilings) {
    run.set_traced(true);
    let sim = li.sim;
    let bs = ceil.block_size;
    let points = prog::electron_points(sim) as f64;

    // GEMM on the workload's RGF block shape.
    let (a, b, mut c) = prog::gemm_operands(bs);
    let gemm_s = isolated(run, "layer.linalg.gemm", || prog::gemm(&a, &b, &mut c));
    let gemm_rate = 8.0 * (bs * bs * bs) as f64 / gemm_s;

    // One RGF solve of a mid-window electron point.
    let sys = prog::rgf_system(sim, li.cfg, 0, sim.p.ne / 2);
    let f0 = prog::total_flops();
    let mut calls = 0u64;
    let rgf_s = isolated(run, "layer.core.rgf", || {
        calls += 1;
        prog::rgf(sim, li.cfg, &sys).expect("isolated RGF solve");
    });
    let rgf_flops = (prog::total_flops() - f0) as f64 / calls as f64;
    let rgf_rate = rgf_flops / rgf_s;

    // A full boundary fill: both contacts at every electron point.
    let mut decimation_iters = 0usize;
    let mut contact_solves = 0usize;
    let fill_s = isolated(run, "layer.core.boundary", || {
        for k in 0..sim.p.nkz {
            for e in 0..sim.p.ne {
                let (_, _, it) = prog::contact_pair(sim, li.cfg, k, e).expect("contact pair");
                decimation_iters += it;
                contact_solves += 2;
            }
        }
    });

    // GF phases with the converged self-energies (boundary cache replayed).
    let egf_s = isolated(run, "layer.core.gf.electron", || {
        prog::electron_gf(sim, li.cfg, li.state).expect("isolated electron GF phase")
    });
    // The replay above filled the boundary cache with the GF phase's own
    // contact Σᴿ; the isolated inputs must match it at every point.
    let mut differing = 0usize;
    for k in 0..sim.p.nkz {
        for e in 0..sim.p.ne {
            let same = prog::contacts_match_cache(sim, li.cfg, k, e).expect("contact pair");
            differing += usize::from(!same);
        }
    }
    run.rec.check(
        "isolated_contacts_match_gf_phase",
        differing == 0,
        format!("{differing} of {points} electron points differ from the boundary cache"),
    );
    let pgf_s = isolated(run, "layer.core.gf.phonon", || {
        prog::phonon_gf(sim, li.cfg, li.state).expect("isolated phonon GF phase")
    });

    // SSE kernels on the same Green's functions.
    let pre_s = isolated(run, "layer.core.sse.preprocess_d", || {
        std::hint::black_box(prog::preprocess_d(sim, li.state));
    });
    let st = prog::sse_state(sim, li.state);
    let f0 = prog::total_flops();
    let mut sigma_calls = 0u64;
    let sigma_s = isolated(run, "layer.core.sse.sigma", || {
        sigma_calls += 1;
        prog::sse_sigma(sim, &st);
    });
    let sigma_flops = prog::total_flops() - f0;
    let exact = prog::sse_sigma_exact_flops(sim);
    run.rec.check(
        "sse_flops_equal_exact_model",
        sigma_flops == exact * sigma_calls,
        format!("{sigma_flops} counted vs {exact} x {sigma_calls} calls"),
    );
    let pi_s = isolated(run, "layer.core.sse.pi", || prog::sse_pi(sim, &st));
    if let Some(world) = li.exchange {
        exchange_layer(run, sim, &st, world, sigma_s + pi_s);
    }
    run.set_traced(false);

    let sse_rate = exact as f64 / sigma_s;
    let iter_s = li.iter_ms / 1e3;
    let rec = &mut run.rec;
    rec.metric("linalg.gemm.gflops_per_s", gemm_rate / 1e9, "GF/s");
    rec.metric(
        "linalg.gemm.ceiling_frac",
        gemm_rate / ceil.gemm_peak,
        "ratio",
    );
    rec.metric("core.rgf.us_per_point", rgf_s * 1e6, "us");
    rec.metric("core.rgf.gflops_per_s", rgf_rate / 1e9, "GF/s");
    rec.metric(
        "core.rgf.ceiling_frac",
        rgf_rate / ceil.gemm_at_block,
        "ratio",
    );
    rec.metric(
        "core.rgf.iter_share",
        ratio(rgf_s * points, iter_s),
        "ratio",
    );
    rec.metric("core.boundary.ms_per_fill", fill_s * 1e3, "ms");
    rec.metric(
        "core.boundary.decimation_iters",
        ratio(decimation_iters as f64, contact_solves as f64),
        "count",
    );
    rec.metric("core.gf.electron_ms", egf_s * 1e3, "ms");
    rec.metric("core.gf.phonon_ms", pgf_s * 1e3, "ms");
    // The boundary cache is hot in the replayed phase, so only RGF is nested.
    rec.metric("core.gf.self_share", 1.0 - rgf_s * points / egf_s, "ratio");
    rec.metric("core.sse.sigma_ms", sigma_s * 1e3, "ms");
    rec.metric("core.sse.pi_ms", pi_s * 1e3, "ms");
    rec.metric("core.sse.gflops_per_s", sse_rate / 1e9, "GF/s");
    rec.metric("core.sse.ceiling_frac", sse_rate / ceil.sse_window, "ratio");
    let sse_s = pre_s + sigma_s + pi_s;
    rec.metric("core.sse.iter_share", ratio(sse_s, iter_s), "ratio");
    let covered = egf_s + pgf_s + sse_s;
    rec.metric(
        "core.scf.iter_unattributed_share",
        1.0 - ratio(covered, iter_s),
        "ratio",
    );
    rec.fact(
        "isolated_layer_inputs",
        record::obj(vec![
            ("rgf_block_size", record::int(bs as u64)),
            ("electron_points", record::int(points as u64)),
            ("rgf_flops_per_point", Json::Num(rgf_flops)),
            ("sse_sigma_flops_exact", record::int(exact)),
            ("iteration_ms_used_for_shares", Json::Num(li.iter_ms)),
        ]),
    );
}

/// Same-process kernel ceilings, recorded with every run.
pub fn record_ceilings(run: &mut Run, sim: &Simulation) -> prog::Ceilings {
    let c = prog::ceilings(sim);
    run.rec.fact(
        "ceilings_flop_per_s",
        record::obj(vec![
            ("gemm_peak_calibrate_rgf_block", Json::Num(c.gemm_peak)),
            ("sse_window_calibrate_dace_wide", Json::Num(c.sse_window)),
            (
                "gemm_calibrate_kernels_at_block",
                Json::Num(c.gemm_at_block),
            ),
            ("csr_calibrate_kernels_at_block", Json::Num(c.csr_at_block)),
            ("block_size", record::int(c.block_size as u64)),
            ("coupling_density", Json::Num(c.coupling_density)),
        ]),
    );
    c
}

/// The CA exchange layer in isolation on the workload's GF state, next to
/// the OMEN baseline on the same world and the local Σ+Π time on the same
/// inputs.
fn exchange_layer(
    run: &mut Run,
    sim: &Simulation,
    st: &prog::SseState,
    (te, ta): (usize, usize),
    local_sse_s: f64,
) {
    let mut last = None;
    let exchange_s = isolated(run, "layer.dist.elastic_exchange", || {
        last = Some(prog::elastic_exchange(sim, st, te, ta));
    });
    let omen_bytes = prog::omen_exchange(sim, st, te * ta);
    let stats = match last.expect("at least one timed exchange") {
        Ok(s) => s,
        Err(e) => {
            run.rec.check("isolated_exchange_completes", false, e);
            return;
        }
    };
    let expected = prog::ca_expected_bytes(sim, te, ta);
    run.rec.check(
        "isolated_exchange_bytes_equal_model",
        stats.bytes == expected,
        format!("{} B measured vs {expected} B model", stats.bytes),
    );
    let rec = &mut run.rec;
    rec.fact(
        "dist_byte_counts",
        Json::Str("computed from the sizes of the exchanged arrays".into()),
    );
    rec.metric("dist.exchange_ms", exchange_s * 1e3, "ms");
    rec.metric(
        "dist.exchange_over_local",
        exchange_s / local_sse_s,
        "ratio",
    );
    rec.metric("dist.comm_bytes_per_iter", stats.bytes as f64, "B");
    rec.metric("dist.max_rank_recv_bytes", stats.max_rank_recv as f64, "B");
    rec.metric("dist.imbalance", stats.imbalance, "ratio");
    rec.metric(
        "dist.omen_bytes_ratio",
        omen_bytes as f64 / stats.bytes as f64,
        "ratio",
    );
}

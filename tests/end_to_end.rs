//! End-to-end integration: the full GF ↔ SSE pipeline through the public
//! facade, spanning qt-linalg, qt-core and qt-dist.

use dace_omen::core::sse::SseInputs;
use dace_omen::prelude::*;

fn params() -> SimParams {
    SimParams {
        nkz: 2,
        nqz: 2,
        ne: 12,
        nw: 2,
        na: 12,
        nb: 3,
        norb: 2,
        bnum: 4,
    }
}

#[test]
fn scf_converges_and_is_variant_independent() {
    let sim = Simulation::new(params(), -1.2, 1.2);
    let mut results = Vec::new();
    for variant in [SseVariant::Reference, SseVariant::Omen, SseVariant::Dace] {
        let cfg = ScfConfig {
            max_iterations: 35,
            tolerance: 1e-8,
            variant,
            ..Default::default()
        };
        let out = run_scf(&sim, &cfg).expect("solve");
        assert!(out.converged, "{variant:?} must converge");
        results.push(out);
    }
    let i_ref = results[0].current_history.last().unwrap();
    for r in &results[1..] {
        let i = r.current_history.last().unwrap();
        assert!(
            (i - i_ref).abs() / i_ref.abs().max(1e-30) < 1e-8,
            "converged current must not depend on the kernel variant"
        );
    }
}

#[test]
fn distributed_sse_agrees_with_serial_through_facade() {
    let p = params();
    let sim = Simulation::new(p, -1.2, 1.2);
    let cfg = GfConfig::default();
    let egf = electron_gf_phase(
        &sim.dev,
        &sim.em,
        &p,
        &sim.grids,
        &ElectronSelfEnergy::zeros(&p),
        &cfg,
    )
    .unwrap();
    let pgf = phonon_gf_phase(
        &sim.dev,
        &sim.pm,
        &p,
        &sim.grids,
        &PhononSelfEnergy::zeros(&p),
        &cfg,
    )
    .unwrap();
    let (dl, dg) = sse::preprocess_d(&sim.dev, &p, &pgf);
    let inputs = SseInputs {
        dev: &sim.dev,
        p: &p,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    let serial = sse::sigma(&inputs, SseVariant::Dace);
    let ctx = SseDistContext {
        p: &p,
        dev: &sim.dev,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    let (omen_sig, omen_pi, omen_stats) = omen_scheme(&ctx, 3);
    let tiling = ElasticTiling::new(&p, 2, 2);
    let (dace_sig, dace_pi, dace_stats) =
        elastic_sse_exchange(&ctx, &tiling, &LivenessConfig::default()).expect("no faults");
    let norm = serial.lesser.norm().max(1e-30);
    assert!(serial.lesser.max_abs_diff(&omen_sig.lesser) / norm < 1e-10);
    assert!(serial.lesser.max_abs_diff(&dace_sig.lesser) / norm < 1e-10);
    // Distributed Π agrees between the two schemes as well.
    let pnorm = omen_pi.lesser.norm().max(1e-30);
    assert!(omen_pi.lesser.max_abs_diff(&dace_pi.lesser) / pnorm < 1e-10);
    assert!(omen_stats.world_bytes > dace_stats.world_bytes);
}

#[test]
fn full_iteration_flop_accounting_is_consistent() {
    // One GF+SSE iteration measured by the global counter must sit within
    // an order of magnitude of the analytic per-iteration model (the model
    // uses paper-calibrated GF constants, so only magnitude is expected).
    let p = params();
    let sim = Simulation::new(p, -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 1,
        tolerance: 0.0,
        ..Default::default()
    };
    let (_, measured) = qt_linalg::count_flops(|| run_scf(&sim, &cfg).unwrap());
    assert!(measured > 0);
    let sse_model = dace_omen::core::flops::sse_dace_flops(&p);
    // The measured count includes GF, SSE and boundary work; the SSE model
    // alone must not exceed it wildly in either direction at this scale.
    let ratio = measured as f64 / sse_model;
    assert!(
        (0.05..200.0).contains(&ratio),
        "measured {measured} vs SSE model {sse_model:.0} (ratio {ratio:.2})"
    );
}

#[test]
fn observables_behave_physically() {
    let sim = Simulation::new(params(), -1.2, 1.2);
    let mut cfg = ScfConfig {
        max_iterations: 20,
        tolerance: 1e-6,
        ..Default::default()
    };
    cfg.gf.contacts = Contacts {
        mu_left: 0.3,
        mu_right: -0.3,
        temperature: 300.0,
        ..Contacts::default()
    };
    let out = run_scf(&sim, &cfg).unwrap();
    let power =
        observables::dissipated_power_per_atom(&sim.p, &sim.grids, &out.sigma, &out.electron);
    // Under bias, net dissipation is positive (Joule heating).
    let total: f64 = power.iter().sum();
    assert!(
        total > 0.0,
        "net dissipated power must be positive: {total}"
    );
    // Density non-negative and current positive along the bias.
    let dens = observables::electron_density(&sim.p, &sim.grids, &out.electron);
    assert!(dens.iter().all(|&d| d > -1e-9));
    assert!(*out.current_history.last().unwrap() > 0.0);
}

#[test]
fn current_is_odd_under_bias_reversal() {
    let sim = Simulation::new(params(), -1.2, 1.2);
    let run = |mu: f64| {
        let mut cfg = ScfConfig {
            max_iterations: 15,
            tolerance: 1e-6,
            ..Default::default()
        };
        cfg.gf.contacts = Contacts {
            mu_left: mu,
            mu_right: -mu,
            temperature: 300.0,
            ..Contacts::default()
        };
        *run_scf(&sim, &cfg).unwrap().current_history.last().unwrap()
    };
    let fwd = run(0.2);
    let rev = run(-0.2);
    assert!(fwd > 0.0 && rev < 0.0);
    // The synthetic device is not perfectly symmetric, but the magnitudes
    // should be comparable.
    assert!(
        (fwd.abs() / rev.abs()).ln().abs() < 0.7,
        "fwd {fwd} rev {rev}"
    );
}

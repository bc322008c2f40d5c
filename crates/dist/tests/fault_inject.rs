//! Chaos tests (feature `fault-inject`): the distributed iteration must
//! survive a seeded schedule of dropped, corrupted, and delayed messages
//! plus a stalled rank, and still produce the fault-free answer bitwise,
//! with no rank declared dead.
#![cfg(feature = "fault-inject")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use qt_core::device::Device;
use qt_core::gf::GfConfig;
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::params::SimParams;
use qt_dist::runner::{distributed_iteration_elastic, ElasticIterationResult, ElasticPolicy};
use qt_dist::{run_world_with_faults, FaultPlan, RetryPolicy};
use qt_linalg::c64;
use qt_telemetry::counters::{self, Counter};

fn fixture() -> (SimParams, Device, ElectronModel, PhononModel, Grids) {
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
    (p, dev, em, pm, grids)
}

/// Drops + corruption + delays + a stalled rank: the headline chaos scenario.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drops(150)
        .with_corruption(100)
        .with_delays(50)
        .with_stalled_rank(1, Duration::from_millis(20))
}

/// One 2×2 distributed iteration, under `faults` when given.
fn iteration(faults: Option<FaultPlan>) -> ElasticIterationResult {
    let (p, dev, em, pm, grids) = fixture();
    let policy = ElasticPolicy {
        faults,
        ..Default::default()
    };
    distributed_iteration_elastic(
        &p,
        &dev,
        &em,
        &pm,
        &grids,
        &GfConfig::default(),
        2,
        2,
        &policy,
    )
    .unwrap()
}

/// Message faults alone kill nobody: the run completes undegraded, with
/// Σ≷/Π≷ bitwise equal to `reference`.
fn assert_survived_bitwise(reference: &ElasticIterationResult, faulty: &ElasticIterationResult) {
    assert!(faulty.deaths.is_empty(), "deaths {:?}", faulty.deaths);
    assert!(!faulty.degraded);
    let (a, b) = (&reference.result, &faulty.result);
    for (name, x, y) in [
        ("sigma lesser", &a.sigma.lesser, &b.sigma.lesser),
        ("sigma greater", &a.sigma.greater, &b.sigma.greater),
        ("pi lesser", &a.pi.lesser, &b.pi.lesser),
        ("pi greater", &a.pi.greater, &b.pi.greater),
    ] {
        assert_eq!(x.as_slice(), y.as_slice(), "{name} must match bitwise");
    }
}

#[test]
fn faulty_iteration_matches_fault_free_run() {
    let clean = iteration(None);
    let retries0 = counters::total(Counter::HealthCommRetries);
    let faulty = iteration(Some(chaos_plan(2024)));
    // guarantee_delivery retransmits the exact payload, so the results are
    // bitwise identical — well inside the 1e-10 acceptance bound.
    for (name, a, b) in [
        (
            "sigma lesser",
            &clean.result.sigma.lesser,
            &faulty.result.sigma.lesser,
        ),
        (
            "sigma greater",
            &clean.result.sigma.greater,
            &faulty.result.sigma.greater,
        ),
        (
            "pi lesser",
            &clean.result.pi.lesser,
            &faulty.result.pi.lesser,
        ),
        (
            "pi greater",
            &clean.result.pi.greater,
            &faulty.result.pi.greater,
        ),
    ] {
        let rel = a.max_abs_diff(b) / a.norm().max(1e-30);
        assert!(rel <= 1e-10, "{name}: rel {rel}");
    }
    assert_survived_bitwise(&clean, &faulty);
    // Faults actually fired: the protocol retried, and retransmissions
    // cost extra wire bytes on top of the clean volume.
    assert!(
        counters::total(Counter::HealthCommRetries) > retries0,
        "chaos plan must trigger retries"
    );
    assert!(
        faulty.result.sse_bytes > clean.result.sse_bytes,
        "retransmissions must cost bytes: faulty {} vs clean {}",
        faulty.result.sse_bytes,
        clean.result.sse_bytes
    );
}

#[test]
fn faulty_runs_are_deterministic() {
    let run = || iteration(Some(chaos_plan(7)));
    let a = run();
    let b = run();
    assert_eq!(
        a.result.sigma.lesser.as_slice(),
        b.result.sigma.lesser.as_slice()
    );
    assert_eq!(
        a.result.sigma.greater.as_slice(),
        b.result.sigma.greater.as_slice()
    );
    assert_eq!(
        a.result.comm.rank_sent, b.result.comm.rank_sent,
        "the fault schedule (and thus the retransmission traffic) is a pure function of the seed"
    );
    assert_survived_bitwise(&a, &b);
    assert!(a.deaths.is_empty() && !a.degraded);
}

#[test]
fn different_seeds_change_the_traffic() {
    let (one, two) = (
        iteration(Some(chaos_plan(1))),
        iteration(Some(chaos_plan(2))),
    );
    assert_ne!(one.result.sse_bytes, two.result.sse_bytes);
    // ...but never the answer.
    assert_survived_bitwise(&one, &two);
    assert!(one.deaths.is_empty() && !one.degraded);
}

#[test]
fn collectives_survive_heavy_faults() {
    // Broadcast + allreduce under a 30% fault rate still produce exact
    // results on every rank.
    let plan = FaultPlan::new(11).with_drops(200).with_corruption(100);
    let out = run_world_with_faults(4, plan, |comm| {
        let b = comm.bcast(0, (comm.rank() == 0).then(|| vec![c64(2.5, 0.0); 3]), 1);
        let r = comm.allreduce_sum(vec![c64(1.0, comm.rank() as f64)], 2);
        comm.barrier();
        (b[0], r[0])
    });
    for (b, r) in out {
        assert_eq!(b, c64(2.5, 0.0));
        assert_eq!(r, c64(4.0, 6.0));
    }
}

#[test]
fn retry_exhaustion_panics_when_delivery_not_guaranteed() {
    // Everything drops and the sender is only allowed two attempts: the
    // bounded-retry protocol must give up loudly, not hang.
    let plan = FaultPlan::new(3).with_drops(1000).with_retry(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_micros(50),
        recv_timeout: Duration::from_millis(20),
        guarantee_delivery: false,
    });
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_world_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![c64(1.0, 0.0)]);
            } else {
                comm.recv(0, 9);
            }
        })
    }));
    assert!(result.is_err(), "exhausted retries must surface as a panic");
}

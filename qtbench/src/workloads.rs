//! The three workloads. Each draws every input from the run's seed, sets up
//! several times (reporting the median as `setup_s`), runs a closed loop for
//! the time budget, checks every answer, and reports its metrics. Why each
//! workload exists is in README.md.

use crate::layers::{self, LayerInputs};
use crate::program::{self as prog, PointResult, ScfConfig, ScfResult};
use crate::record::{self, mean, median, quantile, Json, Rng};
use crate::{Run, SETUP_REPS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Iteration cap of every solve to tolerance: far above what any workload
/// needs, so a solve that stops short is a real convergence failure.
const MAX_ITERATIONS: usize = 60;
/// The solver's default tolerance on the relative change of `G<`.
const TOLERANCE: f64 = 1e-6;
/// Seed of the set-up's warm-up inputs. The warm-up is the same on every
/// seed, so `setup_s` times the same work whatever inputs the loop draws.
const WARMUP_SEED: u64 = 0;
/// A solve's iterations (its `trajectory` wall times) must cover at least
/// this share of the solve's measured wall time.
const ACCOUNTED_SHARE: f64 = 0.9;

/// `n` distinct biases (V) drawn from the grid 0, 0.05, …, 0.40 V.
fn bias_set(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut grid: Vec<u32> = (0..=8).collect();
    rng.shuffle(&mut grid);
    grid[..n].iter().map(|&k| 0.05 * k as f64).collect()
}

/// Order-sensitive fingerprint of a solve's residual and current histories,
/// bit for bit.
fn fingerprint(r: &ScfResult) -> u64 {
    r.residuals
        .iter()
        .chain(&r.current_history)
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Checks every solve to tolerance must pass, and its samples: time to
/// solution and per-iteration times (untraced), or the trajectory for the
/// SCF layer (traced).
fn observe_solve(run: &mut Run, r: &ScfResult, solve_s: f64, traced: bool) -> bool {
    let current = prog::final_current(r);
    let converged = run.rec.check(
        "solve_converges_with_finite_current",
        r.converged && current.is_finite(),
        format!(
            "converged={} after {} iterations, I={current:e}",
            r.converged, r.iterations
        ),
    );
    let in_iterations: f64 = r.trajectory.iter().map(|t| t.wall_seconds).sum();
    let accounted = run.rec.check(
        "trajectory_accounts_for_solve_time",
        in_iterations <= solve_s && in_iterations >= ACCOUNTED_SHARE * solve_s,
        format!(
            "iterations cover {:.4} of {:.4} ms (bound: at least {ACCOUNTED_SHARE})",
            in_iterations * 1e3,
            solve_s * 1e3
        ),
    );
    if traced {
        layers::observe_traced_solve(run, r, solve_s);
    } else {
        run.rec.sample("solve_s", solve_s);
        for t in &r.trajectory {
            run.rec.sample("iter_ms", t.wall_seconds * 1e3);
        }
    }
    converged && accounted
}

/// The end-to-end metrics, from the untraced samples. Typical times are
/// means, not medians: the machine's other tenants switch it between a
/// fast and a slow state (about 1.7x apart) for seconds at a time, and the
/// median of such a two-state mix jumps with the share of the run spent
/// slow, where the mean moves only in proportion to it.
fn end_to_end(run: &mut Run, points: u64, wall_s: f64) {
    let rec = &mut run.rec;
    let setup = median(rec.samples("setup_s"));
    let solve = mean(rec.samples("solve_s"));
    let iter = rec.samples("iter_ms").to_vec();
    let request = rec.samples("request_ms").to_vec();
    rec.metric("setup_s", setup, "s");
    rec.metric("solve_s_mean", solve, "s");
    rec.metric("iter_ms_mean", mean(&iter), "ms");
    rec.metric("iter_ms_p90", quantile(&iter, 0.9), "ms");
    rec.metric("request_ms_mean", mean(&request), "ms");
    rec.metric("request_ms_p90", quantile(&request, 0.9), "ms");
    rec.metric("points_per_s", points as f64 / wall_s, "1/s");
    rec.metric("peak_rss_mb", record::peak_rss_mib(), "MiB");
    rec.fact("loop_wall_s", Json::Num(wall_s));
    rec.fact("points_answered", record::int(points));
}

// ---- iv-sweep ---------------------------------------------------------------

/// Cold solves of the `profile` device at biases that repeat.
pub fn iv_sweep(run: &mut Run) -> Result<(), String> {
    let mut rng = Rng::new(run.seed);
    let biases = bias_set(&mut rng, 4);
    run.rec.fact("bias_set_V", record::nums(&biases));
    let cfg = prog::scf_config(MAX_ITERATIONS, TOLERANCE);
    let warmup = prog::at_bias(&cfg, bias_set(&mut Rng::new(WARMUP_SEED), 1)[0]);
    let build = || {
        let sim = prog::simulation(prog::profile_params());
        prog::solve(&sim, &warmup)?;
        Ok(sim)
    };
    let sim = run.setup(build)?;
    let mut first_seen: Vec<Option<u64>> = vec![None; biases.len()];
    let mut points = 0u64;
    let mut last: Option<ScfResult> = None;
    let resetup = |run: &mut Run| run.setup(build).map(drop);
    let wall = run.closed_loop(resetup, |run, op, traced| {
        let bi = rng.below(biases.len() as u64) as usize;
        let c = prog::at_bias(&cfg, biases[bi]);
        let t = Instant::now();
        let res = {
            let root = run.tracer.span("op.solve", op, None);
            let _s = run.tracer.span("scf.run_scf_with", op, Some(&root));
            prog::solve(&sim, &c)
        };
        let solve_s = t.elapsed().as_secs_f64();
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                run.rec.error(format!("solve at {} V: {e}", biases[bi]));
                return false;
            }
        };
        let mut ok = observe_solve(run, &r, solve_s, traced);
        let fp = fingerprint(&r);
        let first = *first_seen[bi].get_or_insert(fp);
        ok &= run.rec.check(
            "repeated_bias_bitwise_identical",
            fp == first,
            format!(
                "bias {} V: fingerprint {fp:016x} vs first {first:016x}",
                biases[bi]
            ),
        );
        points += u64::from(ok);
        if traced {
            last = Some(r);
        }
        ok
    })?;
    end_to_end(run, points, wall);
    let ceilings = layers::record_ceilings(run, &sim);
    if run.trace {
        layers::loop_metrics(run);
        layers::scf_metrics(run);
        let state = last.ok_or("no traced solve completed")?;
        let li = LayerInputs {
            sim: &sim,
            cfg: &cfg,
            state: &state,
            iter_ms: median(run.rec.samples("traced.warm_iter_ms")),
            exchange: Some((TE, TA)),
        };
        layers::isolated_layers(run, &li, &ceilings);
        check_distributed(run, &sim, &cfg, &biases)?;
    }
    Ok(())
}

// ---- device-batch -------------------------------------------------------------

/// Geometry and grid of every generated device: RGF blocks of 8 atoms × 5
/// orbitals = 40, in the 32–48 range where blocked GEMM is the largest share
/// of a solve. One block size keeps the per-run mix of work, and so the
/// metrics, the same across seeds. Four energies and one phonon frequency
/// keep a solve near 0.2 s, so a run holds over 100 solves for the p90s.
const SECTIONS: usize = 2;
const ATOMS_PER_SECTION: usize = 8;
const ORBITALS: usize = 5;
const DEVICE_NE: usize = 4;
const DEVICE_NW: usize = 1;

/// Scenario text of one generated nanowire with seeded on-site disorder
/// (no vacancies) and a seeded bias in 0.05–0.30 V; returns it with the bias.
fn random_device(rng: &mut Rng, op: u64) -> (String, f64) {
    let disorder_seed = rng.below(1 << 31);
    let bias = 0.05 + 0.01 * rng.below(26) as f64;
    let doc = format!(
        "name = \"device-{op}\"\n\
         [geometry]\nkind = \"nanowire\"\nsections = {SECTIONS}\n\
         atoms_per_section = {ATOMS_PER_SECTION}\norbitals = {ORBITALS}\n\
         [grid]\nnkz = 1\nne = {DEVICE_NE}\nnw = {DEVICE_NW}\nemin = -1.2\nemax = 1.2\n\
         [sweep]\nbiases = [{bias:?}]\n\
         [solver]\nmax_iterations = {MAX_ITERATIONS}\ntolerance = {TOLERANCE:?}\n\
         [disorder]\nseed = {disorder_seed}\nonsite_amplitude = 0.05\n"
    );
    (doc, bias)
}

/// Fresh disordered nanowires, each loaded from generated scenario text and
/// solved cold.
pub fn device_batch(run: &mut Run) -> Result<(), String> {
    let mut rng = Rng::new(run.seed);
    let (warmup_doc, warmup_bias) = random_device(&mut Rng::new(WARMUP_SEED), 0);
    let build = || {
        let b = prog::load_scenario(&warmup_doc)?;
        prog::solve(&b.sim, &prog::scenario_config(&b, warmup_bias)).map(drop)
    };
    run.setup(build)?;
    let mut points = 0u64;
    let mut last: Option<(prog::BuiltScenario, ScfConfig, ScfResult)> = None;
    let wall = run.closed_loop(
        |run| run.setup(build),
        |run, op, traced| {
            let (doc, bias) = random_device(&mut rng, op);
            let root = run.tracer.span("op.device", op, None);
            let t = Instant::now();
            let loaded = {
                let _s = run.tracer.span("scenario.load", op, Some(&root));
                prog::load_scenario(&doc)
            };
            let load_s = t.elapsed().as_secs_f64();
            let b = match loaded {
                Ok(b) => b,
                Err(e) => {
                    run.rec.error(format!("scenario rejected: {e}"));
                    return false;
                }
            };
            let c = prog::scenario_config(&b, bias);
            let t = Instant::now();
            let res = {
                let _s = run.tracer.span("scf.run_scf_with", op, Some(&root));
                prog::solve(&b.sim, &c)
            };
            let solve_s = t.elapsed().as_secs_f64();
            drop(root);
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    run.rec.error(format!("solve of device {op}: {e}"));
                    return false;
                }
            };
            let mut ok = observe_solve(run, &r, solve_s, traced);
            let quarantined: u64 = r.trajectory.iter().map(|t| t.quarantined).sum();
            ok &= run.rec.check(
                "no_point_quarantined",
                quarantined == 0,
                format!("{quarantined} points quarantined on device {op}"),
            );
            if traced {
                run.rec.sample("traced.load_ms", load_s * 1e3);
            }
            points += u64::from(ok);
            if traced || last.is_none() {
                last = Some((b, c, r));
            }
            ok
        },
    )?;
    end_to_end(run, points, wall);
    let (built, cfg, state) = last.ok_or("no device was solved")?;
    let ceilings = layers::record_ceilings(run, &built.sim);
    if run.trace {
        let load = median(run.rec.samples("traced.load_ms"));
        run.rec.metric("scenario.load_ms", load, "ms");
        layers::loop_metrics(run);
        layers::scf_metrics(run);
        let li = LayerInputs {
            sim: &built.sim,
            cfg: &cfg,
            state: &state,
            iter_ms: median(run.rec.samples("traced.warm_iter_ms")),
            exchange: None,
        };
        layers::isolated_layers(run, &li, &ceilings);
    }
    Ok(())
}

// ---- serve-sweep ----------------------------------------------------------------

/// Closed-loop clients of the service, and its worker and pool sizes.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const POOL_SLOTS: usize = 2;
/// Points per request, spaced `BIAS_STEP` apart from a start index drawn
/// from `0..=START_INDICES - 1`: 33 distinct biases in 0–0.32 V, about twice
/// the warm store's default capacity of 16 seeds.
const POINTS_PER_REQUEST: usize = 3;
const START_INDICES: u64 = 31;
const BIAS_STEP: f64 = 0.01;
/// Service solver settings (those of `reproduce serve`).
const SERVE_MAX_ITERATIONS: usize = 40;
const SERVE_TOLERANCE: f64 = 1e-7;
/// A served point's current may differ from the cold reference by this
/// many SCF tolerances, relative to the point's own reference current.
const SERVE_CURRENT_TOLERANCES: f64 = 1e3;
/// Near zero bias the current vanishes, so the relative error is taken
/// against at least this share of the largest reference current served.
const SERVE_CURRENT_FLOOR: f64 = 0.01;
/// How often the traced run switches tracing on and off under the clients.
const TRACE_BLOCK: Duration = Duration::from_millis(500);

fn bias_of(index: usize) -> f64 {
    index as f64 * BIAS_STEP
}

/// One request as its client saw it.
struct Request {
    op: u64,
    start: usize,
    traced: bool,
    submit_s: f64,
    total_s: f64,
    answer: Result<Vec<PointResult>, String>,
}

/// One closed-loop client's request stream, kept across loop segments.
struct ClientState {
    c: usize,
    rng: Rng,
    sent: u64,
}

/// One client: submit, wait for the answer, repeat until `until`.
fn client(run: &Run, svc: &prog::Service, st: &mut ClientState, until: Instant) -> Vec<Request> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let op = st.sent * CLIENTS as u64 + st.c as u64 + 1;
        st.sent += 1;
        let first = st.rng.below(START_INDICES) as usize;
        let biases = (first..first + POINTS_PER_REQUEST).map(bias_of).collect();
        let traced = run.tracer.active();
        let root = run.tracer.span("op.request", op, None);
        let t = Instant::now();
        let ticket = {
            let _s = run.tracer.span("serve.submit", op, Some(&root));
            prog::submit(svc, biases)
        };
        let submit_s = t.elapsed().as_secs_f64();
        let answer = ticket.and_then(|ticket| {
            let _s = run.tracer.span("serve.await", op, Some(&root));
            prog::await_points(ticket)
        });
        out.push(Request {
            op,
            start: first,
            traced,
            submit_s,
            total_s: t.elapsed().as_secs_f64(),
            answer,
        });
    }
    out
}

/// One segment of the loop: every client drives the service for `length`
/// while this thread only switches tracing (traced run), adding the
/// program counters of traced blocks to `traced`. Returns the requests and
/// the segment's wall time in seconds.
fn drive(
    run: &Run,
    svc: &prog::Service,
    clients: &mut [ClientState],
    length: Duration,
    traced: &mut layers::Counters,
) -> (Vec<Request>, f64) {
    let start = Instant::now();
    let until = start + length;
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|st| {
                let finished = &finished;
                s.spawn(move || {
                    let out = client(run, svc, st, until);
                    finished.fetch_add(1, Ordering::SeqCst);
                    out
                })
            })
            .collect();
        let mut on = false;
        let mut since = layers::Counters::now();
        while finished.load(Ordering::SeqCst) < CLIENTS {
            std::thread::sleep(Duration::from_millis(10));
            if run.trace && since.age() >= TRACE_BLOCK {
                if on {
                    traced.add_since(&since);
                }
                on = !on;
                run.set_traced(on);
                since = layers::Counters::now();
            }
        }
        if on {
            traced.add_since(&since);
            run.set_traced(false);
        }
        let wall = start.elapsed().as_secs_f64();
        let requests = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (requests, wall)
    })
}

/// Two clients sending short IV sweeps to one service with two workers.
pub fn serve_sweep(run: &mut Run) -> Result<(), String> {
    let p = prog::serve_params();
    let cfg = prog::scf_config(SERVE_MAX_ITERATIONS, SERVE_TOLERANCE);
    let warmup: Vec<f64> = {
        let first = Rng::new(WARMUP_SEED).below(START_INDICES) as usize;
        (first..first + POINTS_PER_REQUEST).map(bias_of).collect()
    };
    let build = || {
        let svc = prog::start_service(p, cfg, WORKERS, POOL_SLOTS)?;
        match prog::submit(&svc, warmup.clone()).and_then(prog::await_points) {
            Ok(_) => Ok(svc),
            Err(e) => {
                prog::shutdown(svc);
                Err(e)
            }
        }
    };
    let svc = run.setup(build)?;

    // The clients keep both cores busy, so no set-up can run beside them.
    // The loop runs in `SETUP_REPS` segments instead, with one more set-up
    // between each two, so `setup_s` samples the same stretch of machine
    // load as the requests.
    let mut clients: Vec<ClientState> = (0..CLIENTS)
        .map(|c| ClientState {
            c,
            rng: Rng::new(run.seed.wrapping_add(c as u64 + 1)),
            sent: 0,
        })
        .collect();
    let segment = run.budget / SETUP_REPS as u32;
    let mut requests = Vec::new();
    let mut traced = layers::Counters::default();
    let mut wall = 0.0;
    for i in 0..SETUP_REPS {
        if i > 0 {
            run.setup(build).map(prog::shutdown)?;
        }
        let (done, w) = drive(run, &svc, &mut clients, segment, &mut traced);
        requests.extend(done);
        wall += w;
    }
    prog::shutdown(svc);
    run.traced = traced;

    // Cold references for every bias served, computed after the loop and
    // outside every timed region.
    run.set_traced(run.trace);
    let sim = prog::simulation(p);
    let mut used: Vec<usize> = requests
        .iter()
        .flat_map(|r| r.start..r.start + POINTS_PER_REQUEST)
        .collect();
    used.sort_unstable();
    used.dedup();
    let mut reference = vec![f64::NAN; START_INDICES as usize + POINTS_PER_REQUEST];
    let mut state: Option<ScfResult> = None;
    for &i in &used {
        let c = prog::at_bias(&cfg, bias_of(i));
        let t = Instant::now();
        let r = prog::solve(&sim, &c).map_err(|e| format!("reference at {} V: {e}", bias_of(i)))?;
        let solve_s = t.elapsed().as_secs_f64();
        if run.trace {
            layers::observe_traced_solve(run, &r, solve_s);
        }
        if !r.converged {
            return Err(format!("reference at {} V did not converge", bias_of(i)));
        }
        reference[i] = prog::final_current(&r);
        state = Some(r);
    }
    run.set_traced(false);
    let scale = reference
        .iter()
        .filter(|x| x.is_finite())
        .fold(0.0f64, |m, x| m.max(x.abs()));
    let bound = SERVE_CURRENT_TOLERANCES * SERVE_TOLERANCE;

    let mut points = 0u64;
    let mut worst = 0.0f64;
    for req in &requests {
        let ok = match &req.answer {
            Err(e) => {
                run.rec.error(format!("request {}: {e}", req.op));
                false
            }
            Ok(pts) => {
                let mut ok = run.rec.check(
                    "request_answers_every_point",
                    pts.len() == POINTS_PER_REQUEST,
                    format!("{} of {POINTS_PER_REQUEST} points", pts.len()),
                );
                for (j, pt) in pts.iter().enumerate() {
                    let want = reference[req.start + j];
                    let err =
                        (pt.current - want).abs() / want.abs().max(SERVE_CURRENT_FLOOR * scale);
                    worst = worst.max(err);
                    ok &= run.rec.check(
                        "served_point_matches_cold_reference",
                        pt.converged && pt.bias == bias_of(req.start + j) && err <= bound,
                        format!(
                            "bias {} V: I={:e} vs reference {want:e}, relative error {err:e} \
                             (bound {bound:e})",
                            pt.bias, pt.current
                        ),
                    );
                }
                ok
            }
        };
        run.rec.outcome(ok);
        let ms = if ok { req.total_s * 1e3 } else { f64::INFINITY };
        if req.traced {
            run.rec.sample("traced.request_ms", ms);
            run.rec.sample("traced.submit_us", req.submit_s * 1e6);
        } else {
            run.rec.sample("request_ms", ms);
            run.rec
                .sample("solve_s", if ok { req.total_s } else { f64::INFINITY });
        }
        if let Ok(pts) = &req.answer {
            let iterations: usize = pts.iter().map(|p| p.iterations).sum();
            if !req.traced {
                run.rec.sample("iter_ms", ms / iterations.max(1) as f64);
            }
            for pt in pts {
                run.rec.sample("point.iterations", pt.iterations as f64);
                run.rec
                    .sample("point.warm_started", f64::from(u8::from(pt.warm_started)));
                run.rec.sample(
                    "point.degraded_to_cold",
                    f64::from(u8::from(pt.degraded_to_cold)),
                );
                run.rec.sample("point.retries", pt.retries as f64);
            }
            if ok {
                points += pts.len() as u64;
            }
        }
    }
    run.rec
        .fact("served_current_max_relative_error", Json::Num(worst));
    end_to_end(run, points, wall);
    let ceilings = layers::record_ceilings(run, &sim);
    if run.trace {
        let rec = &mut run.rec;
        let submit = median(rec.samples("traced.submit_us"));
        let iters = mean(rec.samples("point.iterations"));
        let warm = mean(rec.samples("point.warm_started"));
        let fallback = mean(rec.samples("point.degraded_to_cold"));
        let retries: f64 = rec.samples("point.retries").iter().sum();
        rec.metric("serve.submit_us_p50", submit, "us");
        rec.metric("serve.iters_per_point", iters, "count");
        rec.metric("serve.warm_share", warm, "ratio");
        rec.metric("serve.fallback_share", fallback, "ratio");
        rec.metric("serve.retries", retries, "count");
        layers::loop_metrics(run);
        layers::scf_metrics(run);
        let state = state.ok_or("no reference solve ran")?;
        let li = LayerInputs {
            sim: &sim,
            cfg: &cfg,
            state: &state,
            iter_ms: median(run.rec.samples("traced.warm_iter_ms")),
            exchange: None,
        };
        layers::isolated_layers(run, &li, &ceilings);
    }
    Ok(())
}

// ---- distributed exchange (iv-sweep traced run) ------------------------------------

/// Energy groups × atom groups of the distributed world: two ranks tiling
/// the atoms (with halo).
const TE: usize = 1;
const TA: usize = 2;
/// Largest relative deviation of distributed Σ≷ from the serial kernel, the
/// bound the `qt-dist` distributed-vs-serial test uses.
const SIGMA_REL_BOUND: f64 = 1e-10;

/// One distributed GF+SSE iteration with the elastic CA exchange per bias,
/// each checked against the serial kernel and the exact byte model.
fn check_distributed(
    run: &mut Run,
    sim: &prog::Simulation,
    cfg: &ScfConfig,
    biases: &[f64],
) -> Result<(), String> {
    for &b in biases {
        let c = prog::at_bias(cfg, b);
        let reference = prog::serial_sigma_reference(sim, &c)?;
        let it = prog::ca_iteration(sim, &c, TE, TA)?;
        let rel = prog::sigma_rel_diff(&reference, &it.sigma);
        run.rec.check(
            "distributed_sigma_matches_serial",
            it.clean && rel <= SIGMA_REL_BOUND,
            format!(
                "bias {b} V: relative deviation {rel:e} (bound {SIGMA_REL_BOUND:e}), clean={}",
                it.clean
            ),
        );
        run.rec.check(
            "exchange_bytes_equal_exact_model",
            it.bytes == it.expected_bytes,
            format!("{} B measured vs {} B model", it.bytes, it.expected_bytes),
        );
    }
    Ok(())
}

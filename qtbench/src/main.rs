//! End-to-end and per-layer benchmark of the quantum-transport stack.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path qtbench/Cargo.toml -- \
//!     --workload iv-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (see README.md), checks every answer, writes the raw
//! samples, checks, provenance and (traced runs) spans to
//! `bench-results/<workload>.seed<seed>.trace<0|1>.json`, and prints one
//! JSON result object as the last line of standard output. The exit code is
//! non-zero when any answer or check is wrong.

mod layers;
mod program;
mod record;
mod workloads;

use record::{Json, Record, Tracer};
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by untraced runs of every workload.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("solve_s_mean", "s"),
    ("iter_ms_mean", "ms"),
    ("iter_ms_p90", "ms"),
    ("request_ms_mean", "ms"),
    ("request_ms_p90", "ms"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs. A workload that does not run
/// a layer reports 0 for it (listed under `not_run` in the results file).
const PER_LAYER: [(&str, &str); 39] = [
    ("linalg.gemm.gflops_per_s", "GF/s"),
    ("linalg.gemm.ceiling_frac", "ratio"),
    ("linalg.gemm.pack_share", "ratio"),
    ("linalg.gemm.solve_share", "ratio"),
    ("core.rgf.us_per_point", "us"),
    ("core.rgf.gflops_per_s", "GF/s"),
    ("core.rgf.ceiling_frac", "ratio"),
    ("core.rgf.iter_share", "ratio"),
    ("core.boundary.ms_per_fill", "ms"),
    ("core.boundary.hit_ratio", "ratio"),
    ("core.boundary.decimation_iters", "count"),
    ("core.gf.electron_ms", "ms"),
    ("core.gf.phonon_ms", "ms"),
    ("core.gf.self_share", "ratio"),
    ("core.sse.sigma_ms", "ms"),
    ("core.sse.pi_ms", "ms"),
    ("core.sse.gflops_per_s", "GF/s"),
    ("core.sse.ceiling_frac", "ratio"),
    ("core.sse.iter_share", "ratio"),
    ("core.scf.iters_per_solve", "count"),
    ("core.scf.cold_iter_ms", "ms"),
    ("core.scf.warm_iter_ms", "ms"),
    ("core.scf.unattributed_share", "ratio"),
    ("core.scf.iter_unattributed_share", "ratio"),
    ("core.scf.ws_fresh_warm", "count"),
    ("process.cpu_util", "ratio"),
    ("dist.exchange_ms", "ms"),
    ("dist.exchange_over_local", "ratio"),
    ("dist.comm_bytes_per_iter", "B"),
    ("dist.max_rank_recv_bytes", "B"),
    ("dist.imbalance", "ratio"),
    ("dist.omen_bytes_ratio", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.iters_per_point", "count"),
    ("serve.warm_share", "ratio"),
    ("serve.fallback_share", "ratio"),
    ("serve.retries", "count"),
    ("scenario.load_ms", "ms"),
    ("telemetry.overhead_share", "ratio"),
];

const WORKLOADS: [&str; 3] = ["iv-sweep", "device-batch", "serve-sweep"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// One run of one workload: its arguments, what it records, and the traced
/// accounting of program counters over the traced operations.
pub struct Run {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub rec: Record,
    pub tracer: Tracer,
    /// Program counters accumulated over the traced operations.
    pub traced: layers::Counters,
}

impl Run {
    /// Switch the program's telemetry and the benchmark's spans together.
    pub fn set_traced(&self, on: bool) {
        program::set_telemetry(on);
        self.tracer.set_active(on);
    }

    /// Time one set-up (build plus one untimed warm-up operation) as a
    /// `setup_s` sample.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let built = build()?;
        self.rec.sample("setup_s", t.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Closed loop with one caller: run `op` until it has run for the time
    /// budget. In a traced run every other operation is traced, so traced
    /// and untraced operations see the same inputs and machine state;
    /// `request_ms` / `traced.request_ms` take each operation's wall time.
    /// `resetup` (a discarded [`Run::setup`]) runs `SETUP_REPS - 1` times,
    /// spread evenly through the loop, so the `setup_s` samples see the
    /// same stretch of machine load as the operations; its time is not
    /// loop time. Returns the loop time in seconds.
    pub fn closed_loop(
        &mut self,
        mut resetup: impl FnMut(&mut Run) -> Result<(), String>,
        mut op: impl FnMut(&mut Run, u64, bool) -> bool,
    ) -> Result<f64, String> {
        let every = self.budget / SETUP_REPS as u32;
        // Set-ups so far, counting the one before the loop.
        let mut setups = 1;
        let mut looped = Duration::ZERO;
        let mut i = 0u64;
        while looped < self.budget {
            if setups < SETUP_REPS && looped >= every * setups as u32 {
                resetup(self)?;
                setups += 1;
            }
            let t = Instant::now();
            let traced = self.trace && i.is_multiple_of(2);
            self.set_traced(traced);
            let before = layers::Counters::now();
            let t_op = Instant::now();
            let ok = op(self, i + 1, traced);
            let dt = t_op.elapsed().as_secs_f64();
            if traced {
                self.traced.add_since(&before);
            }
            self.set_traced(false);
            let name = if traced {
                "traced.request_ms"
            } else {
                "request_ms"
            };
            self.rec
                .sample(name, if ok { dt * 1e3 } else { f64::INFINITY });
            self.rec.outcome(ok);
            i += 1;
            looped += t.elapsed();
        }
        Ok(looped.as_secs_f64())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "qtbench: {e}\nusage: qtbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        rec: Record::default(),
        tracer: Tracer::new(),
        traced: layers::Counters::default(),
    };
    let outcome = match args.workload.as_str() {
        "iv-sweep" => workloads::iv_sweep(&mut run),
        "device-batch" => workloads::device_batch(&mut run),
        _ => workloads::serve_sweep(&mut run),
    };
    if let Err(e) = outcome {
        // A workload that could not run at all counts as one failed attempt.
        run.rec.error(format!("workload aborted: {e}"));
        run.rec.outcome(false);
    }
    report(&args, run);
}

/// Write the results file, print the metric table and the result line, and
/// exit non-zero on any wrong answer.
fn report(args: &Args, mut run: Run) {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut not_run = Vec::new();
    for &(name, unit) in wanted {
        let value = match run.rec.metrics.iter().find(|m| m.0 == name) {
            Some(m) => m.1,
            None if args.trace => {
                not_run.push(Json::Str(name.into()));
                0.0
            }
            None => {
                run.rec.error(format!("metric {name} was not measured"));
                run.rec.outcome(false);
                f64::NAN
            }
        };
        metrics.push((name, value, unit));
    }
    let correct = run.rec.correct();

    let spans = run.tracer.take();
    let summary = record::span_summary(&spans);
    let metric_json = || {
        Json::Obj(
            metrics
                .iter()
                .map(|&(n, v, u)| {
                    let value =
                        record::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(u.into()))]);
                    (n.to_string(), value)
                })
                .collect(),
        )
    };
    let results = record::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", record::int(args.seed)),
        ("seconds", record::int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("provenance", record::provenance()),
        ("correct", Json::Bool(correct)),
        ("attempted", record::int(run.rec.attempted)),
        ("failed", record::int(run.rec.failed)),
        ("metrics", metric_json()),
        ("not_run", Json::Arr(not_run)),
        (
            "checks",
            Json::Arr(
                run.rec
                    .checks
                    .iter()
                    .map(|c| {
                        record::obj(vec![
                            ("name", Json::Str(c.name.clone())),
                            ("passed", Json::Bool(c.passed)),
                            ("detail", Json::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(
                run.rec
                    .errors
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
        (
            "facts",
            Json::Obj(
                std::mem::take(&mut run.rec.facts)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                run.rec
                    .samples
                    .iter()
                    .map(|(k, v)| {
                        let field = record::obj(vec![
                            ("count", record::int(v.len() as u64)),
                            ("values", record::nums(v)),
                        ]);
                        (k.to_string(), field)
                    })
                    .collect(),
            ),
        ),
        (
            "span_summary_ms",
            Json::Obj(
                summary
                    .iter()
                    .map(|(name, &(n, incl, own))| {
                        let row = record::obj(vec![
                            ("count", record::int(n)),
                            ("inclusive", Json::Num(incl)),
                            ("self", Json::Num(own)),
                        ]);
                        (name.to_string(), row)
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        record::obj(vec![
                            ("id", record::int(s.id.into())),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| record::int(p.into())),
                            ),
                            ("name", Json::Str(s.name.into())),
                            ("op", record::int(s.op)),
                            ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                            ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = std::path::Path::new("bench-results");
    let path = dir.join(format!(
        "{}.seed{}.trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, results.dump())) {
        Ok(()) => eprintln!("qtbench: results written to {}", path.display()),
        Err(e) => eprintln!("qtbench: cannot write {}: {e}", path.display()),
    }

    for e in &run.rec.errors {
        eprintln!("qtbench: {e}");
    }
    println!(
        "{} seed={} seconds={} trace={} attempted={} failed={}",
        args.workload, args.seed, args.seconds, args.trace as u8, run.rec.attempted, run.rec.failed
    );
    for c in &run.rec.checks {
        println!(
            "  check {:<34} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for &(n, v, u) in &metrics {
        println!("  {n:<36} {v:>16.6} {u}");
    }
    let line = record::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", record::int(run.rec.attempted)),
        ("failed", record::int(run.rec.failed)),
        ("metrics", metric_json()),
    ]);
    println!("{}", record::one_line(&line));
    if !correct {
        std::process::exit(1);
    }
}

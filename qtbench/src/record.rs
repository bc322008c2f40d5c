//! What a run records: raw samples, checks, counts, spans, and the JSON it
//! writes them out as (in the program's own JSON codec). Nothing here calls
//! the program under test.

pub use crate::program::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---- Statistics -------------------------------------------------------------

/// Quantile `q` in `[0, 1]` by linear interpolation between order statistics
/// (the convention of numpy's default and of `statistics.quantiles`'
/// inclusive method). NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if v[hi].is_infinite() {
        // Failed operations are recorded as infinitely slow.
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was measured (a layer the workload does
/// not run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---- Spans ------------------------------------------------------------------

/// One span: a benchmark call into a layer.
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Solve, request or iteration the span belongs to (0: isolated layer
    /// timings after the workload loop).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory while active; they are written out when the
/// run ends.
pub struct Tracer {
    t0: Instant,
    active: AtomicBool,
    next: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; it is recorded when dropped.
pub struct Span<'a> {
    open: Option<(&'a Tracer, SpanRec)>,
}

impl Span<'_> {
    pub fn id(&self) -> Option<u32> {
        self.open.as_ref().map(|(_, rec)| rec.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((tr, mut rec)) = self.open.take() {
            rec.end_ns = tr.now_ns();
            tr.spans.lock().expect("span list poisoned").push(rec);
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            active: AtomicBool::new(false),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::SeqCst);
    }

    pub fn active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Open a span under `parent` (a root span when `None`); inert while the
    /// tracer is inactive.
    pub fn span(&self, name: &'static str, op: u64, parent: Option<&Span<'_>>) -> Span<'_> {
        if !self.active() {
            return Span { open: None };
        }
        let rec = SpanRec {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.and_then(Span::id),
            name,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        Span {
            open: Some((self, rec)),
        }
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Per span name: count, inclusive time, and self time (inclusive minus
/// the time its direct children cover).
pub fn span_summary(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let incl = (s.end_ns - s.start_ns) as f64 / 1e6;
        let own = incl - *child_ns.get(&s.id).unwrap_or(&0) as f64 / 1e6;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += incl;
        e.2 += own;
    }
    out
}

// ---- The run record -----------------------------------------------------------

/// One correctness check, with what it compared.
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything a run measured, in the order it is reported.
#[derive(Default)]
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    /// Raw per-sample values by name (`_ms`/`_s` suffix gives the unit).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub checks: Vec<Check>,
    /// Failure messages, first few kept.
    pub errors: Vec<String>,
    /// Free-form facts about the run (inputs generated, sizes, ceilings).
    pub facts: Vec<(&'static str, Json)>,
}

impl Record {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn fact(&mut self, name: &'static str, v: Json) {
        self.facts.push((name, v));
    }

    /// Record a check; a failed check fails the operation it belongs to.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) -> bool {
        if !passed {
            self.error(format!("check {name} failed: {detail}"));
        }
        // Keep one entry per check name: the first failure, else the last pass.
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.passed => {
                c.passed = passed;
                c.detail = detail;
            }
            Some(_) => {}
            None => self.checks.push(Check {
                name: name.to_string(),
                passed,
                detail,
            }),
        }
        passed
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Account one closed-loop operation and whether it gave a right answer.
    pub fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

// ---- Process measurements -----------------------------------------------------

/// CPU seconds consumed by the whole process (all threads).
pub fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec-layout struct that outlives
    // the call, and the clock id is a constant every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 / 1e9
    } else {
        f64::NAN
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit, CPU model and compiler of this run, where they can be found.
pub fn provenance() -> Json {
    // Look for a repository only at the working directory, never above it.
    let commit = std::env::current_dir()
        .ok()
        .and_then(|cwd| {
            let mut git = std::process::Command::new("git");
            git.args(["rev-parse", "HEAD"]);
            if let Some(parent) = cwd.parent() {
                git.env("GIT_CEILING_DIRECTORIES", parent);
            }
            git.stderr(std::process::Stdio::null()).output().ok()
        })
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj(vec![
        ("commit", Json::Str(commit)),
        ("nproc", int(nproc() as u64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(env!("QTBENCH_RUSTC_VERSION").into())),
    ])
}

/// Time `f` repeatedly until `budget` has passed (at least `min_samples`
/// samples); returns per-call times in seconds. One untimed call first fills
/// pools and caches. Calls shorter than 50 µs are timed in batches, so the
/// clock reads stay a small part of each sample.
pub fn time_reps(budget: Duration, min_samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    const MIN_SAMPLE: f64 = 50e-6;
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64();
    let batch = (MIN_SAMPLE / first.max(1e-9)).ceil().clamp(1.0, 1e6) as usize;
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_samples || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        out.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    out
}

// ---- JSON ---------------------------------------------------------------------

/// An object from `(key, value)` fields, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

/// A count or seed: a number while an f64 holds it exactly, else its
/// decimal digits as a string.
pub fn int(n: u64) -> Json {
    if n < 1 << 53 {
        Json::Num(n as f64)
    } else {
        Json::Str(n.to_string())
    }
}

/// `j` serialised on one line. The codec indents its output and escapes
/// every control character inside strings, so each line break it writes is
/// layout followed by indentation only.
pub fn one_line(j: &Json) -> String {
    j.dump()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(" ")
}

// ---- Seeded inputs --------------------------------------------------------------

/// SplitMix64: every input of a workload is drawn from this, seeded by
/// `--seed`, so the same seed gives the same inputs whatever the program's
/// own random-number stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A random permutation of `items` (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

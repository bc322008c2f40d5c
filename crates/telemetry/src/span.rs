//! Phase spans: RAII guards that attribute wall-time, flops and bytes to
//! a phase path on drop.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

use crate::counters::{self, Counter};
use crate::{registry, trace};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn telemetry collection on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Is telemetry collection enabled? One relaxed load — this is the entire
/// disabled-mode cost of every span and hot section.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

struct Active {
    path: &'static str,
    t0: Instant,
    flops0: u64,
    bytes0: u64,
    alloc_bytes0: u64,
    alloc_count0: u64,
    global: bool,
}

/// An open phase span. Dropping it records the elapsed time and the
/// counter deltas since entry into the [`registry`] (and, when tracing is
/// on, appends a trace event).
pub struct Span {
    active: Option<Active>,
}

impl Span {
    /// Open a span with *thread-local* counter attribution: the flop/byte
    /// delta of the calling thread only. Use inside parallel worker
    /// bodies (one RGF solve, one boundary contour), where work from
    /// sibling workers must not leak into this span.
    #[inline]
    pub fn enter(path: &'static str) -> Span {
        if !enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(Active {
                path,
                t0: Instant::now(),
                flops0: counters::local(Counter::Flops),
                bytes0: counters::local(Counter::Bytes),
                alloc_bytes0: counters::local(Counter::AllocBytes),
                alloc_count0: counters::local(Counter::AllocCount),
                global: false,
            }),
        }
    }

    /// Open a span with *global* counter attribution: the delta of the
    /// summed counters across all threads. Correct for sequential
    /// orchestration phases (the SCF loop body, one SSE pass) that fan
    /// out over rayon internally; two `enter_global` spans must not run
    /// concurrently on different threads.
    pub fn enter_global(path: &'static str) -> Span {
        if !enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(Active {
                path,
                t0: Instant::now(),
                flops0: counters::total(Counter::Flops),
                bytes0: counters::total(Counter::Bytes),
                alloc_bytes0: counters::total(Counter::AllocBytes),
                alloc_count0: counters::total(Counter::AllocCount),
                global: true,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let wall_ns = a.t0.elapsed().as_nanos() as u64;
        let (flops1, bytes1, alloc_bytes1, alloc_count1) = if a.global {
            (
                counters::total(Counter::Flops),
                counters::total(Counter::Bytes),
                counters::total(Counter::AllocBytes),
                counters::total(Counter::AllocCount),
            )
        } else {
            (
                counters::local(Counter::Flops),
                counters::local(Counter::Bytes),
                counters::local(Counter::AllocBytes),
                counters::local(Counter::AllocCount),
            )
        };
        registry::record(
            a.path,
            wall_ns,
            flops1.saturating_sub(a.flops0),
            bytes1.saturating_sub(a.bytes0),
            alloc_bytes1.saturating_sub(a.alloc_bytes0),
            alloc_count1.saturating_sub(a.alloc_count0),
        );
        trace::record_event(a.path, a.t0, wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the enable flag is global, so the
    // disabled/enabled assertions must run in a fixed order.
    #[test]
    fn span_enable_disable_cycle() {
        set_enabled(false);
        {
            let _s = Span::enter("test/span/disabled");
            counters::add_flops(1);
        }
        assert!(registry::phase("test/span/disabled").is_none());

        set_enabled(true);
        {
            let _s = Span::enter("test/span/local");
            counters::add_flops(123);
        }
        {
            let _g = Span::enter_global("test/span/global");
            counters::add_flops(45);
        }
        set_enabled(false);

        let s = registry::phase("test/span/local").unwrap();
        assert_eq!(s.flops, 123);
        assert_eq!(s.calls, 1);
        let g = registry::phase("test/span/global").unwrap();
        // Global attribution may absorb concurrent test threads' flops,
        // but never less than this span's own work.
        assert!(g.flops >= 45);
    }
}

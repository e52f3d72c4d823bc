//! Tracing from outside the program: thin wrappers that implement the
//! library's public `ForceField` and `LongRangeBackend` traits, time
//! every call into the wrapped layer, and hand results back untouched.
//! Spans stay in memory until the run ends.

use mdm_core::boxsim::SimBox;
use mdm_core::forcefield::{ForceField, ForceResult};
use mdm_core::longrange::{LongRangeBackend, LongRangeResult};
use mdm_core::system::System;
use mdm_core::vec3::Vec3;
use mdm_host::driver::MdmForceField;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`sim.step`, `driver.compute`, `wine2`, `longrange`).
    pub name: &'static str,
    /// Index of this span in the log.
    pub id: usize,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder shared by the wrappers of one run. Tracing
/// can be switched off between calls; a disabled tracer records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    log: Mutex<Log>,
}

impl Tracer {
    /// A new, enabled tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            log: Mutex::new(Log::default()),
        })
    }

    /// Switch recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Run `f` inside a span named `name` (just `f` when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let id = {
            let mut log = self
                .log
                .lock()
                .expect("tracer lock poisoned by a panic inside a traced call");
            let id = log.spans.len();
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                id,
                parent,
                start_ns: (start - self.epoch).as_nanos() as u64,
                dur_ns: 0,
            });
            log.open.push(id);
            id
        };
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let mut log = self
            .log
            .lock()
            .expect("tracer lock poisoned by a panic inside a traced call");
        log.spans[id].dur_ns = dur_ns;
        log.open.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log
            .lock()
            .expect("tracer lock poisoned by a panic inside a traced call")
            .spans
            .clone()
    }

    /// Seconds under spans named `name` whose parent is span `parent`.
    pub fn child_seconds(spans: &[Span], parent: usize, name: &str) -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// The spans as Chrome trace-event JSON (one complete event each).
    pub fn chrome_json(spans: &[Span]) -> String {
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// A force field whose `compute` calls are recorded as `driver.compute`.
pub struct TimedForceField<F> {
    inner: F,
    tracer: Arc<Tracer>,
}

impl<F: ForceField> TimedForceField<F> {
    /// Wrap `inner`.
    pub fn new(inner: F, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<F: ForceField> ForceField for TimedForceField<F> {
    fn compute(&mut self, system: &System) -> ForceResult {
        let inner = &mut self.inner;
        self.tracer.span("driver.compute", || inner.compute(system))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// A wavenumber backend whose `compute` calls are recorded under the
/// given layer name.
pub struct TimedBackend {
    inner: Box<dyn LongRangeBackend>,
    layer: &'static str,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    /// Wrap `inner`, recording its calls as `layer`.
    pub fn new(inner: Box<dyn LongRangeBackend>, layer: &'static str, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            layer,
            tracer,
        }
    }
}

impl LongRangeBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }

    fn set_parallel(&mut self, parallel: bool) {
        self.inner.set_parallel(parallel);
    }

    fn compute(&mut self, simbox: SimBox, positions: &[Vec3], charges: &[f64]) -> LongRangeResult {
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, || inner.compute(simbox, positions, charges))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Access to the MDM driver under any wrapping, for its counters.
pub trait Mdm: ForceField {
    /// The wrapped driver.
    fn mdm(&self) -> &MdmForceField;
}

impl Mdm for MdmForceField {
    fn mdm(&self) -> &MdmForceField {
        self
    }
}

impl Mdm for TimedForceField<MdmForceField> {
    fn mdm(&self) -> &MdmForceField {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        tracer.set_enabled(false);
        tracer.span("skipped", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].dur_ns >= spans[1].dur_ns && spans[1].dur_ns >= 2_000_000);
        assert!(Tracer::child_seconds(&spans, 0, "inner") >= 0.002);
        assert!(Tracer::chrome_json(&spans).contains("\"parent\":0"));
    }
}

//! The benchmark's own spans, recorded with gp-obs around each call into a
//! layer. The program's internal telemetry stays off: every layer call
//! receives the crates' default (disabled) telemetry, so a traced run
//! executes the same program code as an untraced one.
//!
//! Per-layer numbers are read back from these spans, so the numbers and
//! the exported Perfetto trace cannot disagree. A span's *self time* is
//! its duration minus the durations of its direct children.

use graphpipe::obs::{PerfettoSink, Span, Telemetry};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Span recorder; inert (no clock reads, no allocation) when disabled.
pub struct Tracer {
    telemetry: Telemetry,
    labels: Mutex<BTreeMap<u64, String>>,
}

/// One finished span, with its self time and optional label (the cell,
/// model or request kind it belongs to).
pub struct Call {
    pub name: &'static str,
    pub label: Option<String>,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            telemetry: if enabled {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            },
            labels: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    pub fn span(&self, name: &'static str) -> Span {
        self.telemetry.span(name)
    }

    /// A span tagged with a label; the label closure only runs when
    /// tracing is on.
    pub fn labelled(&self, name: &'static str, label: impl FnOnce() -> String) -> Span {
        let span = self.telemetry.span(name);
        if self.enabled() {
            self.labels
                .lock()
                .expect("label map poisoned")
                .insert(span.id().0, label());
        }
        span
    }

    /// Labels an open span once its label is known (e.g. how a request
    /// was served).
    pub fn label(&self, span: &Span, label: &str) {
        if self.enabled() {
            self.labels
                .lock()
                .expect("label map poisoned")
                .insert(span.id().0, label.to_string());
        }
    }

    /// Every finished span with its self time.
    pub fn calls(&self) -> Vec<Call> {
        let spans = self.telemetry.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        let labels = self.labels.lock().expect("label map poisoned");
        spans
            .iter()
            .map(|s| Call {
                name: s.name,
                label: labels.get(&s.id).cloned(),
                dur_ns: s.duration_ns(),
                self_ns: s
                    .duration_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
            })
            .collect()
    }

    /// The recorded spans as Chrome/Perfetto `trace_event` JSON.
    pub fn perfetto(&self) -> String {
        self.telemetry.export(&mut PerfettoSink::new())
    }
}

/// Summed self time of every call named `name`, in ms.
pub fn self_ms(calls: &[Call], name: &str) -> f64 {
    calls
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.self_ns as f64 / 1e6)
        .sum()
}

/// Durations (ms) of the calls named `name` carrying `label`.
pub fn durations_ms(calls: &[Call], name: &str, label: &str) -> Vec<f64> {
    calls
        .iter()
        .filter(|c| c.name == name && c.label.as_deref() == Some(label))
        .map(|c| c.dur_ns as f64 / 1e6)
        .collect()
}

/// Durations (ms) of every call named `name`.
pub fn all_durations_ms(calls: &[Call], name: &str) -> Vec<f64> {
    calls
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.dur_ns as f64 / 1e6)
        .collect()
}

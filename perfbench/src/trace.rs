//! Bench-side tracing: spans recorded around calls into the program's
//! public functions, kept in memory and written out when the run ends.

use dquag_tabular::{DataFrame, Value};
use dquag_validate::{Capabilities, FitReport, PersistedValidatorState, Validator, Verdict};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One span: a named interval, the span that caused it, and the frame it
/// belongs to (the engine's `seq`) when there is one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub seq: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// In-memory span store. Span ids are indices.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        seq: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            seq,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, None);
        out
    }

    /// Sum of durations of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut covered: Vec<(Instant, Instant)> = children[id]
                    .iter()
                    .map(|&c| {
                        let child = &self.spans[c];
                        (child.start.max(span.start), child.end.min(span.end))
                    })
                    .filter(|(s, e)| s < e)
                    .collect();
                covered.sort();
                let mut union = Duration::ZERO;
                let mut current: Option<(Instant, Instant)> = None;
                for (s, e) in covered {
                    current = match current {
                        Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            union += ce - cs;
                            Some((s, e))
                        }
                        None => Some((s, e)),
                    };
                }
                if let Some((cs, ce)) = current {
                    union += ce - cs;
                }
                span.duration().saturating_sub(union)
            })
            .collect()
    }

    /// Write every span as one JSON line, times in microseconds from `epoch`.
    pub fn write(&self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_times = self.self_times();
        for (id, span) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"self_us\": {:.3}, \"parent\": {}, \"seq\": {}}}",
                span.name,
                us(span.start),
                us(span.end),
                self_times[id].as_secs_f64() * 1e6,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.seq.map_or("null".to_string(), |s| s.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Content fingerprint of a decoded frame, used to pair an engine-side
/// `validate` call with the frame (and so the `seq`) it judged.
pub fn fingerprint(df: &DataFrame) -> u64 {
    let mut h = DefaultHasher::new();
    df.n_rows().hash(&mut h);
    for row in df.iter_rows() {
        for value in row {
            match value {
                Value::Null => 0u8.hash(&mut h),
                Value::Number(x) => (1u8, x.to_bits()).hash(&mut h),
                Value::Text(t) => (2u8, t).hash(&mut h),
            }
        }
    }
    h.finish()
}

/// One `validate` call served inside an engine worker.
#[derive(Debug, Clone, Copy)]
pub struct ServedCall {
    pub start: Instant,
    pub end: Instant,
    pub fingerprint: u64,
    /// Time the wrapper itself spent after the call (fingerprint and log).
    pub overhead: Duration,
}

pub type CallLog = Arc<Mutex<Vec<ServedCall>>>;

/// A `Validator` wrapper that times every served `validate` call. Used only
/// in traced runs; replicas share one log.
pub struct TracedValidator {
    inner: Box<dyn Validator>,
    log: CallLog,
}

impl TracedValidator {
    pub fn new(inner: Box<dyn Validator>, log: CallLog) -> Self {
        Self { inner, log }
    }
}

impl Validator for TracedValidator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn fit(&mut self, clean: &DataFrame) -> dquag_validate::Result<FitReport> {
        self.inner.fit(clean)
    }

    fn validate(&self, batch: &DataFrame) -> dquag_validate::Result<Verdict> {
        let start = Instant::now();
        let verdict = self.inner.validate(batch);
        let end = Instant::now();
        let fingerprint = fingerprint(batch);
        let mut log = self.log.lock().expect("call log mutex poisoned");
        log.push(ServedCall {
            start,
            end,
            fingerprint,
            overhead: end.elapsed(),
        });
        verdict
    }

    fn repair(
        &self,
        batch: &DataFrame,
        verdict: &Verdict,
    ) -> dquag_validate::Result<Option<DataFrame>> {
        self.inner.repair(batch, verdict)
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        let inner = self.inner.replicate()?;
        Some(Box::new(TracedValidator::new(inner, Arc::clone(&self.log))))
    }

    fn health_check(&self) -> dquag_validate::Result<()> {
        self.inner.health_check()
    }

    fn persisted_state(&self) -> Option<PersistedValidatorState> {
        self.inner.persisted_state()
    }
}

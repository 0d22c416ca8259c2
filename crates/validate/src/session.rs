//! [`ValidationSession`]: a fitted validator plus a stream of incoming
//! batches.

use crate::{build_spec, FitReport, Result, Validator, ValidatorSpec, Verdict};
use dquag_core::DquagConfig;
use dquag_tabular::DataFrame;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A streaming validation front-end over a fitted [`Validator`].
///
/// The deployment story of the paper's introduction: batches arrive
/// continuously (daily exports, upstream pipelines) and each one must be
/// judged against the clean reference distribution. The session owns the
/// fitted validator, ingests batches one at a time ([`push_batch`]) or in
/// bulk ([`push_batches`], [`push_stream`]), keeps the verdict history, and
/// fans bulk validation out across worker threads
/// ([`with_threads`] — typically `DquagConfig::validation_threads`).
///
/// [`push_batch`]: ValidationSession::push_batch
/// [`push_batches`]: ValidationSession::push_batches
/// [`push_stream`]: ValidationSession::push_stream
/// [`with_threads`]: ValidationSession::with_threads
pub struct ValidationSession {
    validator: Box<dyn Validator>,
    fit_report: Option<FitReport>,
    threads: usize,
    history: Vec<Verdict>,
}

impl ValidationSession {
    /// Fit `validator` on the clean reference data and open a session over
    /// it.
    pub fn fit(mut validator: Box<dyn Validator>, clean: &DataFrame) -> Result<Self> {
        let fit_report = validator.fit(clean)?;
        Ok(Self {
            validator,
            fit_report: Some(fit_report),
            threads: 1,
            history: Vec::new(),
        })
    }

    /// Open a session over an already-fitted validator.
    pub fn from_fitted(validator: Box<dyn Validator>) -> Self {
        Self {
            validator,
            fit_report: None,
            threads: 1,
            history: Vec::new(),
        }
    }

    /// Build, fit and wrap the validator `spec` declares in one call,
    /// honouring `config.validation_threads` for bulk validation.
    ///
    /// Batch-level fan-out lives in the session, so the backend itself is
    /// built with a sequential row path — otherwise a parallel DQuaG backend
    /// under a parallel session would spawn `threads²` workers.
    pub fn train(spec: &ValidatorSpec, config: &DquagConfig, clean: &DataFrame) -> Result<Self> {
        let mut backend_config = config.clone();
        if config.validation_threads > 1 {
            backend_config.validation_threads = 1;
        }
        Ok(Self::fit(build_spec(spec, &backend_config)?, clean)?
            .with_threads(config.validation_threads))
    }

    /// Use up to `threads` worker threads for bulk validation (`0` and `1`
    /// both mean sequential).
    ///
    /// When wrapping a hand-built backend that parallelises internally (a
    /// `DquagBackend` with `validation_threads > 1`), keep one of the two
    /// levels sequential; [`ValidationSession::train`] does this
    /// automatically.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The wrapped validator.
    pub fn validator(&self) -> &dyn Validator {
        &*self.validator
    }

    /// The fit report, when the session fitted the validator itself.
    pub fn fit_report(&self) -> Option<&FitReport> {
        self.fit_report.as_ref()
    }

    /// Number of worker threads used for bulk validation.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Validate one incoming batch and record the verdict.
    pub fn push_batch(&mut self, batch: &DataFrame) -> Result<&Verdict> {
        let verdict = self.validator.validate(batch)?;
        self.history.push(verdict);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Validate a slice of batches — in parallel when the session has more
    /// than one worker thread — record the verdicts in input order, and
    /// return them as a slice of the history (no copies; instance-level
    /// verdicts can be large).
    ///
    /// Verdicts are identical to the sequential path: the validator is
    /// immutable during validation, each batch is independent, and results
    /// are written back by input index.
    pub fn push_batches(&mut self, batches: &[DataFrame]) -> Result<&[Verdict]> {
        let verdicts = self.validate_batches(batches)?;
        let start = self.history.len();
        self.history.extend(verdicts);
        Ok(&self.history[start..])
    }

    /// Drain an iterator of batches through the session (collects, then
    /// validates in bulk so the thread pool is used).
    pub fn push_stream<I>(&mut self, stream: I) -> Result<&[Verdict]>
    where
        I: IntoIterator<Item = DataFrame>,
    {
        let batches: Vec<DataFrame> = stream.into_iter().collect();
        self.push_batches(&batches)
    }

    /// Validate a slice of batches without recording them in the history.
    pub fn validate_batches(&self, batches: &[DataFrame]) -> Result<Vec<Verdict>> {
        let threads = self.threads.clamp(1, batches.len().max(1));
        if threads == 1 {
            return batches.iter().map(|b| self.validator.validate(b)).collect();
        }

        let validator: &dyn Validator = &*self.validator;
        let chunk_size = batches.len().div_ceil(threads);
        let mut slots: Vec<Option<Result<Verdict>>> = Vec::new();
        slots.resize_with(batches.len(), || None);
        std::thread::scope(|scope| {
            for (batch_chunk, slot_chunk) in
                batches.chunks(chunk_size).zip(slots.chunks_mut(chunk_size))
            {
                scope.spawn(move || {
                    for (batch, slot) in batch_chunk.iter().zip(slot_chunk.iter_mut()) {
                        *slot = Some(validator.validate(batch));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every slot is filled by its worker"))
            .collect()
    }

    /// All verdicts recorded so far, oldest first.
    pub fn history(&self) -> &[Verdict] {
        &self.history
    }

    /// Number of batches judged so far.
    pub fn n_batches(&self) -> usize {
        self.history.len()
    }

    /// Number of batches judged dirty so far.
    pub fn n_dirty(&self) -> usize {
        self.history.iter().filter(|v| v.is_dirty).count()
    }

    /// Fraction of judged batches that were dirty (0.0 when empty).
    pub fn dirty_fraction(&self) -> f64 {
        if self.history.is_empty() {
            0.0
        } else {
            self.n_dirty() as f64 / self.history.len() as f64
        }
    }

    /// Mean per-batch error rate ([`Verdict::error_rate`]) over the most
    /// recent `window` verdicts (0.0 when empty; `window == 0` means all).
    pub fn rolling_error_rate(&self, window: usize) -> f64 {
        let window = if window == 0 {
            self.history.len()
        } else {
            window
        };
        let tail = &self.history[self.history.len().saturating_sub(window)..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(Verdict::error_rate).sum::<f64>() / tail.len() as f64
        }
    }

    /// A serialisable snapshot of the session state.
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            validator: self.validator.name().to_string(),
            n_batches: self.n_batches(),
            n_dirty: self.n_dirty(),
            dirty_fraction: self.dirty_fraction(),
            mean_error_rate: self.rolling_error_rate(0),
        }
    }
}

/// Serialisable snapshot of a [`ValidationSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Name of the wrapped validator.
    pub validator: String,
    /// Batches judged so far.
    pub n_batches: usize,
    /// Batches judged dirty.
    pub n_dirty: usize,
    /// `n_dirty / n_batches` (0.0 when empty).
    pub dirty_fraction: f64,
    /// Mean per-batch error rate over the whole history.
    pub mean_error_rate: f64,
}

/// One-line operational summary, e.g.
/// `DQuaG: 7 batches, 2 dirty (28.6%), mean error rate 4.2%`.
impl fmt::Display for SessionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} batches, {} dirty ({:.1}%), mean error rate {:.1}%",
            self.validator,
            self.n_batches,
            self.n_dirty,
            100.0 * self.dirty_fraction,
            100.0 * self.mean_error_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capabilities, ValidateError};

    /// Minimal stub backend: fitting records nothing, validating always says
    /// clean. Enough to exercise the session plumbing without training.
    struct StubValidator {
        fitted: bool,
    }

    impl Validator for StubValidator {
        fn name(&self) -> &str {
            "Stub"
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities::dataset_level()
        }

        fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
            self.fitted = true;
            Ok(FitReport {
                validator: self.name().to_string(),
                n_rows: clean.n_rows(),
                n_columns: clean.n_cols(),
                threshold: None,
                n_parameters: None,
                notes: vec![],
            })
        }

        fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
            if !self.fitted {
                return Err(ValidateError::NotFitted(self.name().to_string()));
            }
            Ok(Verdict::dataset_level(
                self.name(),
                false,
                0.0,
                batch.n_rows(),
                vec![],
            ))
        }
    }

    #[test]
    fn with_threads_zero_is_clamped_to_sequential() {
        // Regression test: `with_threads(0)` must not produce a session whose
        // bulk validation spawns zero workers (and therefore validates
        // nothing); 0 is clamped to 1 like the `DquagConfig` error path
        // demands for `validation_threads == 0`.
        let session = ValidationSession::from_fitted(Box::new(StubValidator { fitted: true }))
            .with_threads(0);
        assert_eq!(session.threads(), 1);

        let batches: Vec<DataFrame> = Vec::new();
        assert_eq!(
            session
                .validate_batches(&batches)
                .expect("no batches")
                .len(),
            0
        );
    }

    #[test]
    fn summary_display_is_one_line() {
        let summary = SessionSummary {
            validator: "Stub".into(),
            n_batches: 4,
            n_dirty: 1,
            dirty_fraction: 0.25,
            mean_error_rate: 0.05,
        };
        assert_eq!(
            summary.to_string(),
            "Stub: 4 batches, 1 dirty (25.0%), mean error rate 5.0%"
        );
    }
}

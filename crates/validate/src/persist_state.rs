//! Serialisable fitted-state mirrors for persistable validators.
//!
//! A [`PersistedValidatorState`] is the crate's *Persistable capability* made
//! concrete: any [`Validator`] that can produce one (via
//! [`Validator::persisted_state`]) can be saved to disk and rebuilt,
//! scoring-ready, by [`restore_validator`] — no refit. Backends opt in by
//! overriding the trait method; composites (ensemble, gated) are persistable
//! exactly when every member is, recursively.
//!
//! The mirrors exist because fitted state is not always serialisable as
//! stored: the drift detector keeps categorical proportions keyed by
//! `Option<String>` (not a JSON object key), so its profile is flattened
//! into explicit `{category, proportion}` records here. The DQuaG backend
//! reuses [`DquagModelState`] from `dquag-core` unchanged.
//!
//! The on-disk envelope (versioning, checksums, atomic writes, quarantine)
//! lives one layer up in `dquag-persist`; this module only defines what a
//! fitted validator *is* as data.

use crate::{Result, ValidateError, Validator};
use dquag_core::spec::{DriftSpec, EscalateWhen, Voting};
use dquag_core::DquagModelState;
use serde::{Deserialize, Serialize};

/// The complete fitted state of a persistable validator, as a serialisable
/// tree mirroring the validator composition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PersistedValidatorState {
    /// A fitted DQuaG backend (network parameters, encoders, threshold).
    Dquag(Box<DquagModelState>),
    /// A fitted KS/PSI drift detector (per-column reference profiles).
    Drift(DriftState),
    /// An ensemble whose members are all persistable.
    Ensemble(EnsembleState),
    /// A gated pair whose members are both persistable.
    Gated(GatedState),
}

impl PersistedValidatorState {
    /// A short label for the root node — the `kind` field of the on-disk
    /// envelope, so tools can identify a file without decoding the payload.
    pub fn kind(&self) -> &'static str {
        match self {
            PersistedValidatorState::Dquag(_) => "dquag",
            PersistedValidatorState::Drift(_) => "drift",
            PersistedValidatorState::Ensemble(_) => "ensemble",
            PersistedValidatorState::Gated(_) => "gated",
        }
    }
}

/// Fitted state of a [`crate::DriftValidator`]: the spec plus one profile
/// per reference column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftState {
    /// Which tests run and their thresholds.
    pub spec: DriftSpec,
    /// Per-column reference profiles, in schema order.
    pub profiles: Vec<DriftColumnState>,
}

/// The reference profile of one column. Exactly one of `numeric` /
/// `categorical` is set; [`restore_validator`] rejects anything else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftColumnState {
    /// Column name.
    pub column: String,
    /// Set when the reference column was numeric.
    pub numeric: Option<NumericProfileState>,
    /// Set when the reference column was categorical.
    pub categorical: Option<CategoricalProfileState>,
}

/// Numeric reference profile: empirical CDF sample, quantile bin edges and
/// per-bucket proportions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericProfileState {
    /// Sorted finite reference values.
    pub sorted: Vec<f64>,
    /// Quantile bin edges.
    pub edges: Vec<f64>,
    /// Reference proportion per bucket (`edges.len() + 2` entries: value
    /// buckets plus the trailing missing bucket).
    pub proportions: Vec<f64>,
}

/// Categorical reference profile as explicit records — `Option<String>`
/// categories cannot be JSON object keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoricalProfileState {
    /// One record per category; `category: None` counts missing values.
    pub categories: Vec<CategoryProportion>,
}

/// One category's reference proportion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryProportion {
    /// The category label; `None` is the missing-value bucket.
    pub category: Option<String>,
    /// Fraction of reference rows in this category.
    pub proportion: f64,
}

/// Fitted state of an [`crate::EnsembleValidator`]: member states in voting
/// order plus the voting policy (weights are re-derived from it on rebuild).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleState {
    /// Member states, in voting order.
    pub members: Vec<PersistedValidatorState>,
    /// How member verdicts combine.
    pub voting: Voting,
}

/// Fitted state of a [`crate::GatedValidator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatedState {
    /// The cheap screen's state.
    pub cheap: Box<PersistedValidatorState>,
    /// The expensive judge's state.
    pub expensive: Box<PersistedValidatorState>,
    /// The escalation rule.
    pub escalate_when: EscalateWhen,
}

/// Rebuild a fitted, scoring-ready validator from persisted state.
///
/// The inverse of [`Validator::persisted_state`]: the returned validator
/// produces verdicts identical to the one that exported the state. Loading
/// fails closed — structural inconsistencies (missing profiles, checksum
/// mismatches in the DQuaG parameters, invalid specs) are errors, never
/// silently-degraded validators.
pub fn restore_validator(state: PersistedValidatorState) -> Result<Box<dyn Validator>> {
    match state {
        PersistedValidatorState::Dquag(model) => {
            let fitted = dquag_core::DquagValidator::from_state(*model)?;
            Ok(Box::new(crate::DquagBackend::from_trained(fitted)))
        }
        PersistedValidatorState::Drift(drift) => {
            Ok(Box::new(crate::DriftValidator::from_state(drift)?))
        }
        PersistedValidatorState::Ensemble(ensemble) => {
            let members = ensemble
                .members
                .into_iter()
                .map(restore_validator)
                .collect::<Result<Vec<_>>>()?;
            Ok(Box::new(crate::EnsembleValidator::new(
                members,
                ensemble.voting,
            )?))
        }
        PersistedValidatorState::Gated(gated) => {
            let cheap = restore_validator(*gated.cheap)?;
            let expensive = restore_validator(*gated.expensive)?;
            Ok(Box::new(crate::GatedValidator::new(
                cheap,
                expensive,
                gated.escalate_when,
            )?))
        }
    }
}

impl DriftColumnState {
    /// Enforce the exactly-one-profile invariant, naming the column.
    pub(crate) fn validated(&self) -> Result<()> {
        match (&self.numeric, &self.categorical) {
            (Some(_), None) | (None, Some(_)) => Ok(()),
            (Some(_), Some(_)) => Err(ValidateError::InvalidConfig(format!(
                "persisted drift profile for column `{}` is both numeric and categorical",
                self.column
            ))),
            (None, None) => Err(ValidateError::InvalidConfig(format!(
                "persisted drift profile for column `{}` carries no distribution",
                self.column
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriftValidator, EnsembleValidator, GatedValidator};
    use dquag_core::spec::DriftSpec;
    use dquag_tabular::{DataFrame, Field, Schema, Value};
    use serde::Serialize;

    fn frames() -> (DataFrame, DataFrame) {
        let schema = Schema::new(vec![Field::numeric("amount", "")]);
        let mut clean = DataFrame::new(schema.clone());
        for i in 0..50 {
            clean.push_row(vec![Value::Number(i as f64 / 5.0)]).unwrap();
        }
        let mut drifted = DataFrame::new(schema);
        for i in 0..20 {
            drifted
                .push_row(vec![Value::Number(500.0 + i as f64)])
                .unwrap();
        }
        (clean, drifted)
    }

    fn fitted_drift(clean: &DataFrame) -> DriftValidator {
        let mut d = DriftValidator::new(DriftSpec::default());
        d.fit(clean).unwrap();
        d
    }

    #[test]
    fn composite_state_round_trips_to_identical_verdicts() {
        let (clean, drifted) = frames();

        let ensemble = EnsembleValidator::new(
            vec![
                Box::new(fitted_drift(&clean)) as Box<dyn Validator>,
                Box::new(fitted_drift(&clean)),
            ],
            Voting::Majority,
        )
        .unwrap();
        let gated = GatedValidator::new(
            Box::new(fitted_drift(&clean)),
            Box::new(ensemble),
            EscalateWhen::ScoreAtLeast(0.5),
        )
        .unwrap();

        let state = gated
            .persisted_state()
            .expect("all members are persistable");
        assert_eq!(state.kind(), "gated");

        // Full JSON round-trip of the recursive state tree.
        let json = serde_json::to_string(&state.to_value()).unwrap();
        let parsed: PersistedValidatorState = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, state);

        let rebuilt = restore_validator(parsed).unwrap();
        assert_eq!(rebuilt.name(), gated.name());
        for batch in [&clean, &drifted] {
            assert_eq!(
                rebuilt.validate(batch).unwrap(),
                gated.validate(batch).unwrap()
            );
        }
        assert!(rebuilt.validate(&drifted).unwrap().is_dirty);
        // The rebuilt composite is itself persistable again.
        assert!(rebuilt.persisted_state().is_some());
    }

    #[test]
    fn composites_with_a_non_persistable_member_export_nothing() {
        struct Opaque;
        impl Validator for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn capabilities(&self) -> crate::Capabilities {
                crate::Capabilities::dataset_level()
            }
            fn fit(&mut self, _: &DataFrame) -> Result<crate::FitReport> {
                unreachable!("not fitted in this test")
            }
            fn validate(&self, batch: &DataFrame) -> Result<crate::Verdict> {
                Ok(crate::Verdict::dataset_level(
                    "opaque".to_string(),
                    false,
                    0.0,
                    batch.n_rows(),
                    vec![],
                ))
            }
        }

        let (clean, _) = frames();
        let ensemble = EnsembleValidator::new(
            vec![
                Box::new(fitted_drift(&clean)) as Box<dyn Validator>,
                Box::new(Opaque),
            ],
            Voting::Majority,
        )
        .unwrap();
        assert!(ensemble.persisted_state().is_none());

        let gated = GatedValidator::new(
            Box::new(Opaque),
            Box::new(fitted_drift(&clean)),
            EscalateWhen::ScoreAtLeast(0.5),
        )
        .unwrap();
        assert!(gated.persisted_state().is_none());

        // An unfitted persistable backend also exports nothing yet.
        assert!(DriftValidator::new(DriftSpec::default())
            .persisted_state()
            .is_none());
    }

    #[test]
    fn rebuild_rejects_hollow_drift_profiles() {
        let state = PersistedValidatorState::Drift(DriftState {
            spec: DriftSpec::default(),
            profiles: vec![DriftColumnState {
                column: "amount".into(),
                numeric: None,
                categorical: None,
            }],
        });
        let err = match restore_validator(state) {
            Err(err) => err,
            Ok(_) => panic!("a profile with no distribution must not rebuild"),
        };
        assert!(err.to_string().contains("amount"), "got `{err}`");
    }
}

//! Simulation error type.

use std::error::Error;
use std::fmt;

use nms_core::PredictPriceError;
use nms_solver::SolverError;
use nms_types::ValidateError;

use crate::journal::JournalError;

/// Why a simulation run failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A game/scheduling subproblem failed.
    Solver(SolverError),
    /// Price prediction failed.
    Prediction(PredictPriceError),
    /// A scenario or run configuration was invalid.
    Config(ValidateError),
    /// Telemetry was too corrupted to use even after sanitization.
    Telemetry {
        /// Human-readable detail.
        detail: String,
    },
    /// The run's checkpoint journal failed: storage I/O, interior
    /// corruption, or a journal that belongs to a different run.
    Journal(JournalError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Solver(err) => write!(f, "solver failure: {err}"),
            Self::Prediction(err) => write!(f, "prediction failure: {err}"),
            Self::Config(err) => write!(f, "configuration failure: {err}"),
            Self::Telemetry { detail } => write!(f, "telemetry failure: {detail}"),
            Self::Journal(err) => write!(f, "journal failure: {err}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Solver(err) => Some(err),
            Self::Prediction(err) => Some(err),
            Self::Config(err) => Some(err),
            Self::Telemetry { .. } => None,
            Self::Journal(err) => Some(err),
        }
    }
}

impl From<JournalError> for SimError {
    fn from(err: JournalError) -> Self {
        Self::Journal(err)
    }
}

impl From<SolverError> for SimError {
    fn from(err: SolverError) -> Self {
        Self::Solver(err)
    }
}

impl From<PredictPriceError> for SimError {
    fn from(err: PredictPriceError) -> Self {
        Self::Prediction(err)
    }
}

impl From<ValidateError> for SimError {
    fn from(err: ValidateError) -> Self {
        Self::Config(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err: SimError = ValidateError::new("bad N").into();
        assert!(err.to_string().contains("bad N"));
        assert!(err.source().is_some());
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}

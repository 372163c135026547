//! Error type for the prediction substrate.

use std::error::Error;
use std::fmt;

use crp_info::InfoError;

/// Errors produced while building predictions or advice.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// The underlying distribution construction failed.
    Distribution(InfoError),
    /// A noise or training parameter was invalid.
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// An advice oracle was asked for more bits than it can meaningfully
    /// produce, or for a participant set it cannot encode.
    AdviceUnavailable {
        /// Human-readable description of the problem.
        what: String,
    },
    /// A trace file could not be read: it is missing, larger than
    /// [`crate::MAX_TRACE_FILE_BYTES`], not UTF-8, or not a trace.
    TraceFile {
        /// The offending file.
        path: String,
        /// What went wrong.
        what: String,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Distribution(err) => write!(f, "distribution error: {err}"),
            PredictError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            PredictError::AdviceUnavailable { what } => write!(f, "advice unavailable: {what}"),
            PredictError::TraceFile { path, what } => write!(f, "trace file {path}: {what}"),
        }
    }
}

impl Error for PredictError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PredictError::Distribution(err) => Some(err),
            _ => None,
        }
    }
}

impl From<InfoError> for PredictError {
    fn from(err: InfoError) -> Self {
        PredictError::Distribution(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = PredictError::from(InfoError::EmptySupport);
        assert!(err.to_string().contains("distribution"));
        assert!(err.source().is_some());
        let err = PredictError::InvalidParameter {
            what: "negative factor".into(),
        };
        assert!(err.to_string().contains("negative factor"));
        assert!(err.source().is_none());
    }
}

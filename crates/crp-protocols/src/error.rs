//! Error type for protocol construction.

use std::error::Error;
use std::fmt;

use crp_channel::ChannelError;
use crp_info::InfoError;
use crp_predict::PredictError;

/// Errors produced while constructing a protocol instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A parameter was outside the protocol's valid range.
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// The underlying information-theoretic construction failed (e.g. an
    /// optimal code could not be built for the supplied prediction).
    Info(InfoError),
    /// The advice substrate failed to produce usable advice.
    Predict(PredictError),
    /// A protocol name was not found in the registry.
    UnknownProtocol {
        /// The unrecognised name.
        name: String,
        /// Comma-separated list of the names the registry does know.
        known: String,
    },
    /// A registry constructor was invoked without a parameter the protocol
    /// needs.
    MissingParameter {
        /// The protocol being constructed.
        protocol: String,
        /// Which parameter is missing.
        what: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            ProtocolError::Info(err) => write!(f, "information-theory error: {err}"),
            ProtocolError::Predict(err) => write!(f, "prediction error: {err}"),
            ProtocolError::UnknownProtocol { name, known } => {
                write!(
                    f,
                    "unknown protocol {name:?}; registered protocols: {known}"
                )
            }
            ProtocolError::MissingParameter { protocol, what } => {
                write!(f, "protocol {protocol:?} requires {what}")
            }
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Info(err) => Some(err),
            ProtocolError::Predict(err) => Some(err),
            ProtocolError::InvalidParameter { .. }
            | ProtocolError::UnknownProtocol { .. }
            | ProtocolError::MissingParameter { .. } => None,
        }
    }
}

impl From<InfoError> for ProtocolError {
    fn from(err: InfoError) -> Self {
        ProtocolError::Info(err)
    }
}

impl From<PredictError> for ProtocolError {
    fn from(err: PredictError) -> Self {
        ProtocolError::Predict(err)
    }
}

/// An executor's configuration check (empty participant set, zero round
/// cap, a probability outside `[0, 1]`) surfaces as an invalid parameter
/// carrying the channel's message.
impl From<ChannelError> for ProtocolError {
    fn from(err: ChannelError) -> Self {
        ProtocolError::InvalidParameter {
            what: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = ProtocolError::InvalidParameter {
            what: "b too large".into(),
        };
        assert!(e.to_string().contains("b too large"));
        assert!(e.source().is_none());

        let e = ProtocolError::from(InfoError::EmptySupport);
        assert!(e.source().is_some());

        let e = ProtocolError::from(PredictError::InvalidParameter { what: "x".into() });
        assert!(e.to_string().contains("prediction"));
    }
}

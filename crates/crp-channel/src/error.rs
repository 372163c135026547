//! Error type for the channel simulator.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or driving the channel simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// An executor was driven with a configuration it cannot run (no
    /// participants, a zero round cap, or a probability outside `[0, 1]`).
    InvalidConfiguration {
        /// Human-readable description of the problem.
        what: String,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::InvalidConfiguration { what } => {
                write!(f, "invalid execution configuration: {what}")
            }
        }
    }
}

impl Error for ChannelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let what = "zero rounds".to_string();
        let err = ChannelError::InvalidConfiguration { what };
        assert!(err.to_string().contains("zero rounds"));
    }
}

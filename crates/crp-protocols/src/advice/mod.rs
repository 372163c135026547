//! Perfect-advice protocols (paper §3).
//!
//! Each protocol here matches one of the four tight bounds in the paper's
//! Table 2, given `b` bits of perfect advice produced by the oracles in
//! [`crp_predict::advice`]:
//!
//! | setting | bound | protocol |
//! |---|---|---|
//! | deterministic, no CD | `Θ(n / 2^b)` scan rounds | [`DeterministicNoCdAdvice`] |
//! | deterministic, CD | `Θ(log n − b)` | [`DeterministicCdAdvice`] |
//! | randomized, no CD | `Θ(log n / 2^b)` expected | [`AdvisedDecay`] |
//! | randomized, CD | `Θ(log log n − b)` expected | [`AdvisedWillard`] |
//!
//! (The paper states the deterministic no-CD bound as `Θ(n^{1−β}/log n)`
//! for advice budgets of the form `b = β·log n`; the protocol form used
//! here, a scan of the `n/2^b` candidate identities that remain after the
//! advice prefix, is exactly the matching upper-bound construction
//! described after Theorem 3.4.)
//!
//! [`NonInteractiveScheme`] implements the non-interactive contention
//! resolution problem used as the pivot of the deterministic lower bounds
//! (Theorem 3.3), together with its connection to strongly selective
//! families.

mod det_cd;
mod det_no_cd;
mod noninteractive;
mod rand_cd;
mod rand_no_cd;

use crp_channel::ParticipantId;

use crate::error::ProtocolError;

pub use det_cd::DeterministicCdAdvice;
pub use det_no_cd::DeterministicNoCdAdvice;
pub use noninteractive::NonInteractiveScheme;
pub use rand_cd::AdvisedWillard;
pub use rand_no_cd::AdvisedDecay;

/// The universe check of the deterministic advice nodes: both
/// constructors apply it to their own id, and a whole execution applies it
/// to every id before building its nodes infallibly.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidParameter`] if `id` is outside a
/// universe of size `universe_size`.
pub(crate) fn check_in_universe(
    universe_size: usize,
    id: ParticipantId,
) -> Result<(), ProtocolError> {
    if id.index() >= universe_size {
        return Err(ProtocolError::InvalidParameter {
            what: format!("participant {id} outside universe of size {universe_size}"),
        });
    }
    Ok(())
}

/// Runs `nodes` with each one wrapped so that it adds its transmissions to
/// a shared tally, and returns the execution with the number of
/// transmitters in each elapsed round (`[r - 1]` for round `r`).
#[cfg(test)]
fn execute_tallied<N: crp_channel::NodeProtocol>(
    nodes: Vec<N>,
    config: &crp_channel::ExecutionConfig,
    rng: &mut dyn rand::RngCore,
) -> (crp_channel::Execution, Vec<usize>) {
    use crp_channel::{Feedback, NodeProtocol};
    use std::cell::RefCell;

    struct Tallied<'a, N> {
        node: N,
        tally: &'a RefCell<Vec<usize>>,
    }

    impl<N: NodeProtocol> NodeProtocol for Tallied<'_, N> {
        fn decide(&mut self, round: usize, rng: &mut dyn rand::RngCore) -> bool {
            let transmits = self.node.decide(round, rng);
            let tally = &mut *self.tally.borrow_mut();
            tally.resize(tally.len().max(round), 0);
            tally[round - 1] += usize::from(transmits);
            transmits
        }
        fn observe(&mut self, round: usize, feedback: Feedback) {
            self.node.observe(round, feedback);
        }
        fn finished(&self) -> bool {
            self.node.finished()
        }
    }

    let tally = RefCell::new(Vec::new());
    let mut tallied: Vec<Tallied<N>> = nodes
        .into_iter()
        .map(|node| Tallied {
            node,
            tally: &tally,
        })
        .collect();
    let execution =
        crp_channel::try_execute(&mut tallied, config, rng).expect("valid configuration");
    (execution, tally.into_inner())
}

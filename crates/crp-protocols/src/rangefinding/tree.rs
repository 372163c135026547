//! Tree range finding (paper §2.4).
//!
//! In the collision-detection setting a uniform algorithm is a function
//! from collision histories to probabilities — equivalently a binary tree
//! whose node at history `s` is labelled with the probability `A(s)`.
//! The paper converts that tree into a range-finding tree `T_A` by
//! replacing each probability label `ℓ` with its implied range
//! `⌈log(1/ℓ)⌉`, and then grafting the canonical full tree `T*` of all
//! ranges at depth `⌈log log n⌉` along the leftmost path so that every
//! range is guaranteed to appear by depth `2⌈log log n⌉` (Case 2 of
//! Lemma 2.11).

use crp_channel::CollisionHistory;
use crp_info::{log2_ceil, range_index_for_size, CondensedDistribution};

use crate::protocol::UniformPolicy;

/// A binary tree whose nodes are labelled with range guesses from `L(n)`.
///
/// The tree is stored level by level as a map from history prefixes to
/// labels; only the nodes actually materialised (up to the construction
/// depth) are present.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeFindingTree {
    /// Flat storage: `levels[d]` holds the labels of depth-`d` nodes in
    /// left-to-right (history-lexicographic, 0 before 1) order.  A node may
    /// be `None` if the underlying strategy had given up on that history.
    levels: Vec<Vec<Option<usize>>>,
    num_ranges: usize,
}

impl RangeFindingTree {
    /// Builds the range-finding tree for a collision-detection strategy on
    /// a universe of size `n`, materialising `depth` levels plus the
    /// grafted canonical tree.
    ///
    /// The grafting follows the paper: walk the leftmost path to depth
    /// `⌈log log n⌉` and hang the canonical tree `T*` (a balanced tree
    /// containing every range in `L(n)`) below it, so every range appears
    /// by depth `⌈log log n⌉ + ⌈log ⌈log n⌉⌉ ≤ 2⌈log log n⌉`.
    ///
    /// The node at depth `d` is the strategy's probability for round
    /// `d + 1` after the `d`-bit history leading to it, the round an
    /// executor would query it in.
    pub fn from_strategy<S: UniformPolicy + ?Sized>(strategy: &S, n: usize, depth: usize) -> Self {
        let num_ranges = range_index_for_size(n.max(2));
        let graft_depth = log2_ceil(num_ranges.max(1) as u64) as usize;
        let canonical_depth = log2_ceil(num_ranges.max(1) as u64) as usize;
        let total_depth = depth.max(graft_depth + canonical_depth + 1);

        let mut levels: Vec<Vec<Option<usize>>> = Vec::with_capacity(total_depth);
        for d in 0..total_depth {
            let width = 1usize << d;
            let mut level = Vec::with_capacity(width);
            for node in 0..width {
                // The history leading to this node: the bits of `node`,
                // most significant first, of length `d`.
                let bits: Vec<bool> = (0..d).rev().map(|shift| (node >> shift) & 1 == 1).collect();
                let history = CollisionHistory::from_bits(bits);
                let label = strategy.probability(d + 1, &history).map(|p| {
                    if p <= 0.0 {
                        num_ranges
                    } else {
                        let raw = (1.0 / p).log2().ceil() as isize;
                        raw.clamp(1, num_ranges as isize) as usize
                    }
                });
                level.push(label);
            }
            levels.push(level);
        }

        // Graft the canonical tree along the leftmost path: at depth
        // graft_depth + j the leftmost 2^j nodes are relabelled with ranges
        // so that levels graft_depth..=graft_depth+canonical_depth jointly
        // contain every range in L(n).
        let mut next_range = 1usize;
        let mut d = graft_depth;
        while next_range <= num_ranges && d < levels.len() {
            for label in levels[d].iter_mut() {
                if next_range > num_ranges {
                    break;
                }
                *label = Some(next_range);
                next_range += 1;
            }
            d += 1;
        }

        Self { levels, num_ranges }
    }

    /// Number of materialised levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of ranges in the underlying support `L(n)`.
    pub fn num_ranges(&self) -> usize {
        self.num_ranges
    }

    /// The shallowest depth at which a node label comes within `tolerance`
    /// of `target` (the range-finding complexity of that target), if any.
    ///
    /// Depths are counted from 1 for the root so they line up with round
    /// counts.
    pub fn depth_solving(&self, target: usize, tolerance: usize) -> Option<usize> {
        for (d, level) in self.levels.iter().enumerate() {
            if level
                .iter()
                .any(|&label| label.is_some_and(|v| v.abs_diff(target) <= tolerance))
            {
                return Some(d + 1);
            }
        }
        None
    }

    /// Expected solving depth when targets are drawn from `targets`;
    /// unsolved targets contribute `penalty`.
    pub fn expected_depth(
        &self,
        targets: &CondensedDistribution,
        tolerance: usize,
        penalty: usize,
    ) -> f64 {
        let mut expectation = 0.0;
        for range in 1..=targets.num_ranges() {
            let p = targets.probability_of_range(range);
            if p <= 0.0 {
                continue;
            }
            let depth = self.depth_solving(range, tolerance).unwrap_or(penalty);
            expectation += p * depth as f64;
        }
        expectation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Willard;
    use crate::predicted::CodedSearch;
    use crp_info::SizeDistribution;

    #[test]
    fn every_range_appears_within_twice_log_log_n() {
        let n = 1 << 16; // 16 ranges, log log n = 4
        let willard = Willard::new(n).unwrap();
        let tree = RangeFindingTree::from_strategy(&willard, n, 4);
        for range in 1..=16 {
            let depth = tree
                .depth_solving(range, 0)
                .unwrap_or_else(|| panic!("range {range} missing from the tree"));
            assert!(
                depth <= 2 * 4 + 2,
                "range {range} only appears at depth {depth}"
            );
        }
        assert_eq!(tree.num_ranges(), 16);
    }

    #[test]
    fn willard_tree_finds_mid_ranges_at_the_root() {
        let n = 1 << 8; // 8 ranges, root probes the median range 4
        let willard = Willard::new(n).unwrap();
        let tree = RangeFindingTree::from_strategy(&willard, n, 4);
        assert_eq!(tree.depth_solving(4, 0), Some(1));
        // Ranges one probe away appear at depth 2.
        assert!(tree.depth_solving(2, 0).unwrap() <= 3);
        assert!(tree.depth_solving(6, 0).unwrap() <= 3);
    }

    #[test]
    fn coded_search_tree_reaches_likely_ranges_early() {
        let n = 4096;
        let likely = 700;
        let prediction = SizeDistribution::bimodal(n, likely, 8, 0.9).unwrap();
        let protocol = CodedSearch::from_sizes(&prediction).unwrap();
        let tree = RangeFindingTree::from_strategy(&protocol, n, protocol.horizon());
        let likely_range = crp_info::range_index_for_size(likely);
        let unlikely_range = crp_info::range_index_for_size(2);
        let likely_depth = tree.depth_solving(likely_range, 0).unwrap();
        let unlikely_depth = tree.depth_solving(unlikely_range, 0).unwrap();
        assert!(
            likely_depth <= unlikely_depth,
            "likely range at depth {likely_depth}, unlikely at {unlikely_depth}"
        );
    }

    #[test]
    fn expected_depth_weights_by_target_distribution() {
        let n = 1024;
        let willard = Willard::new(n).unwrap();
        let tree = RangeFindingTree::from_strategy(&willard, n, 5);
        // A point mass on the root's probe range has expected depth 1.
        let easy =
            CondensedDistribution::from_sizes(&SizeDistribution::point_mass(n, 1 << 5).unwrap());
        let expected = tree.expected_depth(&easy, 0, 100);
        assert!(expected <= 2.0, "expected depth {expected} too large");
    }

    #[test]
    fn tree_depth_is_bounded_by_construction_request() {
        let n = 256;
        let willard = Willard::new(n).unwrap();
        let tree = RangeFindingTree::from_strategy(&willard, n, 3);
        // Even with a small request, grafting may deepen the tree, but it
        // stays within 2 log log n + a constant.
        assert!(tree.depth() >= 3);
        assert!(tree.depth() <= 10);
    }
}

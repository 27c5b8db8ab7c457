//! Domain partitioning for one categorizing attribute (paper
//! Sections 5.1.2, 5.1.3 and the Section 6.1 baselines).

pub mod categorical;
pub mod equiwidth;
pub mod numeric;

use crate::label::CategoryLabel;
use qcat_data::AttrId;

/// Strided cooperative-cancellation poll for row-grain partition
/// loops: checks the thread's current [`qcat_fault::Gas`] every
/// [`GasPacer::STRIDE`] ticks, the same stride the scan layer uses.
///
/// A tripped budget makes the enclosing level unchargeable — the
/// level-grain `charge_nodes`/`charge_heap` in `categorize_inner`
/// fails before anything is attached — so a partition loop that
/// breaks early on a trip only ever truncates a value that is then
/// discarded wholesale. Budgeted output therefore stays byte-identical
/// to an unbudgeted run's surviving prefix.
pub(crate) struct GasPacer {
    gas: Option<qcat_fault::Gas>,
    since: usize,
}

impl GasPacer {
    /// Rows examined between polls: frequent enough to bound deadline
    /// overshoot, rare enough to stay invisible in partitioning
    /// throughput.
    const STRIDE: usize = 1024;

    pub(crate) fn new() -> Self {
        GasPacer {
            gas: qcat_fault::current_gas(),
            since: 0,
        }
    }

    /// True while work may continue; false once the budget tripped.
    pub(crate) fn checkpoint(&mut self) -> bool {
        let Some(g) = &self.gas else { return true };
        self.since += 1;
        if self.since < Self::STRIDE {
            return true;
        }
        self.since = 0;
        g.checkpoint()
    }
}

/// One would-be child of a partitioning: its label, its size, and the
/// exploration probability `P(C)` the partitioner already derived from
/// workload statistics. Carrying `p_explore` here is what lets pricing
/// (Equation 1) and tree attachment consume the partitioner's work
/// instead of re-deriving it through the estimator.
#[derive(Debug, Clone)]
pub struct Part {
    /// The category label.
    pub label: CategoryLabel,
    /// Number of the node's rows that fall under the label.
    pub size: usize,
    /// Estimated exploration probability `P(C)` for the label,
    /// identical to what [`crate::probability::ProbabilityEstimator`]
    /// would return for it.
    pub p_explore: f64,
}

/// A proposed partitioning of one node's rows: the would-be children
/// in presentation order. Every row of the node falls in exactly one
/// part; parts are non-empty. The rows themselves travel separately,
/// regrouped part by part by `scatter`.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// The categorizing attribute.
    pub attr: AttrId,
    /// Parts in presentation order.
    pub parts: Vec<Part>,
}

impl Partitioning {
    /// Number of would-be children.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the partitioning produced no categories.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total tuples across parts (must equal the node's tuple count).
    pub fn total_tuples(&self) -> usize {
        self.parts.iter().map(|p| p.size).sum()
    }

    /// `(p_explore, size)` pairs in part order — the exact shape
    /// Equation 1 pricing consumes.
    pub fn children_for_pricing(&self) -> Vec<(f64, usize)> {
        self.parts.iter().map(|p| (p.p_explore, p.size)).collect()
    }
}

/// Stable counting scatter, the one materialization routine of every
/// partitioner: a node's rows regrouped part by part, parts in index
/// order, each part keeping the node's row order. `rows` yields every
/// row of the node with its part index, in the node's order; part `k`
/// holds `sizes[k]` rows. [`crate::CategoryTree::attach`] writes the
/// result over the node's slice of the row permutation, so a leaf of
/// a table-ordered root stays ascending.
///
/// `None` when the rows disagree with the sizes or a budget trip cut
/// the pass short; either way the level it belongs to can no longer
/// be charged, so nothing would be attached.
pub(crate) fn scatter(
    sizes: impl IntoIterator<Item = usize>,
    rows: impl IntoIterator<Item = (u32, usize)>,
) -> Option<Vec<u32>> {
    let mut next = Vec::new();
    let mut ends = Vec::new();
    let mut total = 0;
    for size in sizes {
        next.push(total);
        total += size;
        ends.push(total);
    }
    let mut out = vec![0u32; total];
    let mut pacer = GasPacer::new();
    for (row, part) in rows {
        if !pacer.checkpoint() {
            return None;
        }
        let at = next.get_mut(part)?;
        *out.get_mut(*at)? = row;
        *at += 1;
    }
    (next == ends).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_stable_and_checks_sizes() {
        let rows = [(3, 1), (5, 0), (7, 1), (9, 2), (11, 0)];
        assert_eq!(scatter([2, 2, 1], rows), Some(vec![5, 11, 3, 7, 9]));
        // Empty parts take no room.
        let shifted = rows.map(|(r, p)| (r, p + usize::from(p > 0)));
        assert_eq!(scatter([2, 0, 2, 1], shifted), Some(vec![5, 11, 3, 7, 9]));
        // Sizes that disagree with the rows are refused, not truncated.
        assert_eq!(scatter([2, 1, 1], rows), None);
        assert_eq!(scatter([2, 3, 1], rows), None);
        assert_eq!(scatter([2, 2], rows), None);
        assert_eq!(scatter([0usize; 0], []), Some(vec![]));
    }
}

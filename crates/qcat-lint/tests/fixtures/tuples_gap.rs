//! SEEDED L9 VIOLATION plus its fixed twin — never compiled, only
//! analyzed (as crate `qcat-core`, inside the budget region).
//!
//! `count_matches` walks one category's rows through the tree's slice
//! accessor without ever polling the gas: a deadline or a tripped
//! budget cannot stop it. `count_matches_polled` is the same loop
//! with the sanctioned checkpoint.

pub fn audit_category(gas: &Gas, tree: &CategoryTree, id: NodeId, label: &CategoryLabel) -> usize {
    qcat_fault::with_budget(gas, || {
        count_matches(tree, id, label) + count_matches_polled(gas, tree, id, label)
    })
}

/// BUG (seeded): a row-grain loop over `tset(C)` with no Gas poll.
fn count_matches(tree: &CategoryTree, id: NodeId, label: &CategoryLabel) -> usize {
    let mut n = 0;
    for &row in tree.tuples(id) {
        n += usize::from(label.matches_row(tree.relation(), row));
    }
    n
}

/// Fixed twin: the loop polls the budget and drains when it trips.
fn count_matches_polled(gas: &Gas, tree: &CategoryTree, id: NodeId, label: &CategoryLabel) -> usize {
    let mut n = 0;
    for &row in tree.tuples(id) {
        if !gas.checkpoint() {
            break;
        }
        n += usize::from(label.matches_row(tree.relation(), row));
    }
    n
}

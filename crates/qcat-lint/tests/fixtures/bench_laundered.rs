//! SEEDED L10 VIOLATION — never compiled, only analyzed (as a
//! `qcat-serve` library file, inside the budget region), together with
//! `bench_caller.rs`, a benchmark binary that calls into it.
//!
//! `probe_keys` allocates inside the budget-governed region. The only
//! code that mentions `heap_bytes` on a path to it is the benchmark
//! binary, which the budget never governs: that mention must not count
//! as heap accounting for the library fn.

pub fn fill(gas: &Gas, query: &Query) -> Vec<String> {
    qcat_fault::with_budget(gas, || probe_keys(query))
}

/// BUG (seeded): the benchmark's accounting is laundered into it.
pub fn probe_keys(query: &Query) -> Vec<String> {
    let mut keys = Vec::with_capacity(query.len());
    keys.extend(query.keys());
    keys
}

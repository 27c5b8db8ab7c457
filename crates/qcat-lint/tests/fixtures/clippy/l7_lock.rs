//! L7 seeds: `Mutex::lock` outside a poison-recovering helper. Each
//! line marked `//~` must fire exactly the clippy lints it names;
//! every other line must stay clean.

use std::sync::{Mutex, MutexGuard};

pub fn locks(m: &Mutex<u32>) -> u32 {
    let a = *m.lock().unwrap(); //~ disallowed_methods unwrap_used
    let b = *m.lock().expect("poisoned"); //~ disallowed_methods expect_used
    // Stricter than the lexical L7: recovering inline is still a
    // lock outside the helper.
    let c = *m.lock().unwrap_or_else(|e| e.into_inner()); //~ disallowed_methods
    a + b + c + *lock_recover(m)
}

/// The sanctioned pattern: one reasoned allow on one helper.
#[allow(clippy::disallowed_methods, reason = "the one poison-recovering lock helper")]
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An allow with no reason is itself a finding.
#[allow(clippy::disallowed_methods)] //~ allow_attributes_without_reason
pub fn unreasoned(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|e| e.into_inner())
}

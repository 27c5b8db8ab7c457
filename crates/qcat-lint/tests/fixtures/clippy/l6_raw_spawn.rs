//! L6 seeds: threads created outside `qcat-pool`. Each line marked
//! `//~` must fire exactly the clippy lints it names; every other
//! line must stay clean.

use std::thread as t;

pub fn spawns() {
    let h = std::thread::spawn(|| 1); //~ disallowed_methods
    let _ = h.join();
    std::thread::scope(|_| {}); //~ disallowed_methods
    let _b = std::thread::Builder::new(); //~ disallowed_methods
    // A renamed import is resolved, not matched as text.
    let _ = t::spawn(|| 2); //~ disallowed_methods
}

pub fn look_alikes() {
    // thread::spawn in a comment
    let _ = "thread::spawn";
    let _ = std::thread::current();
}

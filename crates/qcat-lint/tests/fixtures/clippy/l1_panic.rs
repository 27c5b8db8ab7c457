//! L1 seeds: panic sites in library code. Each line marked `//~`
//! must fire exactly the clippy lints it names; every other line,
//! the look-alikes and the test module included, must stay clean.

pub fn unwraps(x: Option<u32>) -> u32 {
    x.unwrap() //~ unwrap_used
}

pub fn expects(x: Result<u32, String>) -> u32 {
    x.expect("msg") //~ expect_used
}

pub fn panics() {
    panic!("boom"); //~ panic
}

pub fn look_alikes(x: Option<u32>, m: &std::sync::RwLock<u32>) -> u32 {
    // this .unwrap() is a comment, and panic!() too
    let s = "panic! .unwrap()";
    let r = r#"contains "quotes" and .expect("x")"#;
    let guard = *m.read().unwrap_or_else(|e| e.into_inner());
    let debug_panic_flag = s.len() + r.len();
    x.unwrap_or(0) + x.unwrap_or_default() + guard + debug_panic_flag as u32
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        Ok::<u32, ()>(1).expect("fine in tests");
        panic!("fine in tests");
    }
}

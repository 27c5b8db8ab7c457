//! L5 seeds: raw console output in library code. Each line marked
//! `//~` must fire exactly the clippy lints it names; every other
//! line, the sinks and the test module included, must stay clean.

pub fn prints(x: u32) -> u32 {
    println!("out"); //~ print_stdout
    eprintln!("err"); //~ print_stderr
    print!("out"); //~ print_stdout
    eprint!("err"); //~ print_stderr
    std::println!("path-qualified"); //~ print_stdout
    dbg!(x) //~ dbg_macro
}

pub fn sinks(w: &mut impl std::io::Write) {
    // a println! in a comment
    let s = "println!";
    writeln!(w, "through a sink {s}").ok();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        println!("fine in tests");
        dbg!(1);
    }
}

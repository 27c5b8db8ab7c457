//! The paper reproduction as a gated artifact: every deterministic
//! `repro` artifact at smoke scale must print exactly the committed
//! golden. `fig13` is left out because it reports wall-clock timings.
//!
//! `scripts/check.sh` diffs the same artifact list at standard scale
//! against `golden/repro_standard.txt`.
//!
//! Regenerate the smoke golden (and explain the change in CHANGES.md) with:
//!
//! ```text
//! cargo build --release -p qcat-study --bin repro
//! (cd "$(mktemp -d)" && /path/to/target/release/repro --scale smoke \
//!     fig7 table1 fig8 table2 table3 fig9 fig10 fig11 fig12 table4 ablation) \
//!     > crates/qcat-study/tests/golden/repro_smoke.txt
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Every artifact except the timing-only `fig13`, in the order the
/// golden was recorded.
const ARTIFACTS: [&str; 11] = [
    "fig7", "table1", "fig8", "table2", "table3", "fig9", "fig10", "fig11", "fig12", "table4",
    "ablation",
];

#[test]
fn smoke_repro_matches_golden() {
    // `fig7` writes `fig7.svg` into the working directory; run in a
    // private directory so the committed `fig7.svg` is never touched.
    let workdir: PathBuf =
        std::env::temp_dir().join(format!("qcat-repro-golden-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).expect("create temp working directory");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--scale")
        .arg("smoke")
        .args(ARTIFACTS)
        .current_dir(&workdir)
        .env_remove("QCAT_TRACE")
        .env_remove("QCAT_FAULT")
        .output()
        .expect("run repro");
    let _ = std::fs::remove_dir_all(&workdir);
    assert!(
        output.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("repro prints UTF-8");
    let expected = include_str!("golden/repro_smoke.txt");
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "smoke repro output differs from the golden at line {}:\n  actual:   {:?}\n  expected: {:?}\n(actual {} lines, golden {} lines)",
            first_diff + 1,
            actual.lines().nth(first_diff),
            expected.lines().nth(first_diff),
            actual.lines().count(),
            expected.lines().count(),
        );
    }
}

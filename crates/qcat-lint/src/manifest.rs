//! Engine 1, rule L3: layering checks read from `Cargo.toml` files.
//!
//! The dependency direction the workspace commits to (see
//! `docs/LINTS.md`):
//!
//! ```text
//! qcat-obs                   (observability: depends on nothing)
//!    ↑
//! qcat-fault                 (budgets + fault points: sees only qcat-obs)
//!    ↑
//! qcat-pool                  (threading substrate: sees qcat-obs, qcat-fault)
//!    ↑
//! qcat-data, qcat-sql        (foundations: no view of the model)
//!    ↑
//! qcat-core                  (the paper's algorithms)
//!    ↑
//! qcat-serve                 (serving layer: pipeline + caches)
//!    ↑
//! qcat-exec, qcat-datagen, qcat-explore, qcat-study   (drivers)
//! ```
//!
//! A tiny TOML subset reader suffices: dependency names are the keys
//! of `[dependencies]` / `[dev-dependencies]` / `[build-dependencies]`
//! tables in the non-inline form the workspace uses.

use crate::diag::{Diagnostic, Rule};

/// Dependency names declared by one manifest, split by section.
#[derive(Debug, Default, Clone)]
pub struct ManifestDeps {
    /// `[dependencies]` keys.
    pub normal: Vec<String>,
    /// `[dev-dependencies]` keys.
    pub dev: Vec<String>,
}

/// Parse the dependency tables out of Cargo.toml text.
pub fn parse_manifest_deps(toml: &str) -> ManifestDeps {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        Normal,
        Dev,
        Other,
    }
    let mut deps = ManifestDeps::default();
    let mut section = Section::Other;
    for raw in toml.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = match line.trim_matches(['[', ']']) {
                "dependencies" => Section::Normal,
                "dev-dependencies" => Section::Dev,
                s if s.starts_with("target.") && s.ends_with(".dependencies") => Section::Normal,
                _ => Section::Other,
            };
            continue;
        }
        if section == Section::Other {
            continue;
        }
        // `name = ...` or `name.workspace = true`; the dependency name
        // is the first dotted segment of the key.
        let Some(key) = line.split('=').next() else {
            continue;
        };
        let name = key.trim().split('.').next().unwrap_or("").trim_matches('"');
        if !name.is_empty() {
            let target = match section {
                Section::Normal => &mut deps.normal,
                Section::Dev => &mut deps.dev,
                Section::Other => unreachable!(),
            };
            target.push(name.to_string());
        }
    }
    deps
}

/// The layering contract: crate → dependencies it must not declare
/// (in `[dependencies]`; dev-dependencies are exempt so foundations
/// can be *tested* against upper layers if ever needed).
pub fn forbidden_deps(crate_name: &str) -> &'static [&'static str] {
    match crate_name {
        // The observability substrate sits below everything: every
        // crate may instrument itself, so qcat-obs seeing any of them
        // would be a cycle (and would let tracing drag the model in).
        "qcat-obs" => &[
            "qcat-fault",
            "qcat-pool",
            "qcat-data",
            "qcat-sql",
            "qcat-core",
            "qcat-exec",
            "qcat-workload",
            "qcat-serve",
            "qcat-explore",
            "qcat-datagen",
            "qcat-study",
            "qcat-lint",
        ],
        // The governance substrate (budgets + fault points) sits just
        // above qcat-obs: every crate may consult the current budget
        // or hit a fault point, so any upward edge would be a cycle.
        "qcat-fault" => &[
            "qcat-pool",
            "qcat-data",
            "qcat-sql",
            "qcat-core",
            "qcat-exec",
            "qcat-workload",
            "qcat-serve",
            "qcat-explore",
            "qcat-datagen",
            "qcat-study",
            "qcat-lint",
        ],
        // The threading substrate sits just above qcat-obs and
        // qcat-fault (workers propagate the recorder, budget, and
        // fault plan) and below everything else: it must never see
        // the model, data, or drivers.
        "qcat-pool" => &[
            "qcat-data",
            "qcat-sql",
            "qcat-core",
            "qcat-exec",
            "qcat-workload",
            "qcat-serve",
            "qcat-explore",
            "qcat-datagen",
            "qcat-study",
            "qcat-lint",
        ],
        // Foundations must not see the model, the serving layer, or
        // the studies. qcat-data additionally must not see the
        // workload layer: its index module serves the executor through
        // value-level APIs (`f64` bounds, `u32` codes), never through
        // query types.
        "qcat-data" => &[
            "qcat-core",
            "qcat-study",
            "qcat-exec",
            "qcat-explore",
            "qcat-serve",
            "qcat-workload",
            "qcat-sql",
        ],
        "qcat-sql" => &[
            "qcat-core",
            "qcat-study",
            "qcat-exec",
            "qcat-explore",
            "qcat-serve",
        ],
        // The model must not depend on data generation, serving, or
        // studies.
        "qcat-core" => &["qcat-datagen", "qcat-study", "qcat-explore", "qcat-serve"],
        // The serving layer composes exec/core/workload (plus the
        // data/sql/obs foundations beneath them); it must never pull
        // in the drivers, generators, or tooling.
        "qcat-serve" => &[
            "qcat-datagen",
            "qcat-study",
            "qcat-explore",
            "qcat-lint",
            "qcat-bench",
        ],
        _ => &[],
    }
}

/// Check one crate's manifest against the layering contract.
pub fn check_layering(
    crate_name: &str,
    manifest_path: &str,
    toml: &str,
) -> Vec<Diagnostic> {
    let deps = parse_manifest_deps(toml);
    let mut diags = Vec::new();
    for banned in forbidden_deps(crate_name) {
        if deps.normal.iter().any(|d| d == banned) {
            diags.push(Diagnostic::file_level(
                manifest_path,
                Rule::L3Layering,
                format!("`{crate_name}` must not depend on `{banned}` (layering)"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "qcat-sql"
version.workspace = true

# a comment
[dependencies]
qcat-data.workspace = true
something = { version = "1", features = ["x"] }

[dev-dependencies]
qcat-core.workspace = true

[features]
extra-checks = []
"#;

    #[test]
    fn parses_sections() {
        let deps = parse_manifest_deps(SAMPLE);
        assert_eq!(deps.normal, vec!["qcat-data", "something"]);
        assert_eq!(deps.dev, vec!["qcat-core"]);
    }

    #[test]
    fn dev_deps_are_exempt() {
        // qcat-core appears only under dev-dependencies: allowed.
        assert_eq!(check_layering("qcat-sql", "x/Cargo.toml", SAMPLE), vec![]);
    }

    #[test]
    fn forbidden_dep_is_flagged() {
        let bad = "[dependencies]\nqcat-core = { path = \"../core\" }\n";
        let diags = check_layering("qcat-data", "crates/qcat-data/Cargo.toml", bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::L3Layering);
        assert!(diags[0].message.contains("qcat-core"), "{}", diags[0].message);
        // And the clean direction passes.
        assert_eq!(check_layering("qcat-exec", "x", bad), vec![]);
    }

    #[test]
    fn obs_must_stay_dependency_free() {
        let bad = "[dependencies]\nqcat-data.workspace = true\n";
        let diags = check_layering("qcat-obs", "crates/qcat-obs/Cargo.toml", bad);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("qcat-data"));
        assert_eq!(check_layering("qcat-obs", "x", "[dependencies]\n"), vec![]);
    }

    #[test]
    fn pool_sees_only_obs() {
        let bad = "[dependencies]\nqcat-obs.workspace = true\nqcat-data.workspace = true\n";
        let diags = check_layering("qcat-pool", "crates/qcat-pool/Cargo.toml", bad);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("qcat-data"));
        let good = "[dependencies]\nqcat-obs.workspace = true\n";
        assert_eq!(check_layering("qcat-pool", "x", good), vec![]);
        // And qcat-obs must not complete a cycle back into the pool.
        let cycle = "[dependencies]\nqcat-pool.workspace = true\n";
        let diags = check_layering("qcat-obs", "crates/qcat-obs/Cargo.toml", cycle);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("qcat-pool"));
    }

    #[test]
    fn serve_sees_pipeline_but_not_drivers() {
        let good = "[dependencies]\nqcat-obs.workspace = true\nqcat-data.workspace = true\n\
                    qcat-sql.workspace = true\nqcat-exec.workspace = true\n\
                    qcat-workload.workspace = true\nqcat-core.workspace = true\n";
        assert_eq!(check_layering("qcat-serve", "x", good), vec![]);
        let bad = "[dependencies]\nqcat-study.workspace = true\nqcat-bench.workspace = true\n";
        let diags = check_layering("qcat-serve", "crates/qcat-serve/Cargo.toml", bad);
        assert_eq!(diags.len(), 2);
        // And no lower layer may reach back up into the server.
        for lower in ["qcat-obs", "qcat-pool", "qcat-data", "qcat-sql", "qcat-core"] {
            let cycle = "[dependencies]\nqcat-serve.workspace = true\n";
            assert_eq!(check_layering(lower, "x", cycle).len(), 1, "{lower}");
        }
    }

    #[test]
    fn data_index_module_stays_below_the_query_layer() {
        // The index module works on codes and f64 bounds; qcat-data
        // seeing qcat-sql (or qcat-workload) would let query types
        // leak into the storage layer.
        for banned in ["qcat-sql", "qcat-workload"] {
            let bad = format!("[dependencies]\n{banned}.workspace = true\n");
            let diags = check_layering("qcat-data", "crates/qcat-data/Cargo.toml", &bad);
            assert_eq!(diags.len(), 1, "{banned}");
        }
    }

    #[test]
    fn fault_sees_only_obs() {
        let good = "[dependencies]\nqcat-obs.workspace = true\n";
        assert_eq!(check_layering("qcat-fault", "x", good), vec![]);
        let bad = "[dependencies]\nqcat-obs.workspace = true\nqcat-pool.workspace = true\n";
        let diags = check_layering("qcat-fault", "crates/qcat-fault/Cargo.toml", bad);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("qcat-pool"));
        // And qcat-obs must not complete a cycle back into the faults.
        let cycle = "[dependencies]\nqcat-fault.workspace = true\n";
        assert_eq!(check_layering("qcat-obs", "x", cycle).len(), 1);
        // The pool may see qcat-fault (it propagates budget + plan).
        let pool = "[dependencies]\nqcat-obs.workspace = true\nqcat-fault.workspace = true\n";
        assert_eq!(check_layering("qcat-pool", "x", pool), vec![]);
    }

    #[test]
    fn sharded_data_plane_edges_are_sanctioned() {
        // PR 8 put the pool under the data plane: qcat-data builds
        // per-shard indexes through morsels and qcat-exec schedules
        // morsel scans. Both edges point downward and must stay legal;
        // the reverse edge (pool seeing data) stays a cycle.
        let data = "[dependencies]\nqcat-obs.workspace = true\nqcat-fault.workspace = true\n\
                    qcat-pool.workspace = true\n";
        assert_eq!(check_layering("qcat-data", "x", data), vec![]);
        let exec = "[dependencies]\nqcat-data.workspace = true\nqcat-sql.workspace = true\n\
                    qcat-pool.workspace = true\n";
        assert_eq!(check_layering("qcat-exec", "x", exec), vec![]);
        let cycle = "[dependencies]\nqcat-data.workspace = true\n";
        assert_eq!(check_layering("qcat-pool", "x", cycle).len(), 1);
    }

    #[test]
    fn core_cannot_use_datagen() {
        let bad = "[dependencies]\nqcat-datagen.workspace = true\nqcat-data.workspace = true\n";
        let diags = check_layering("qcat-core", "crates/core/Cargo.toml", bad);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("qcat-datagen"));
    }
}

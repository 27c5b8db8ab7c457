//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p qcat-study --release --bin repro -- all
//! cargo run -p qcat-study --release --bin repro -- fig7 table1 fig8
//! cargo run -p qcat-study --release --bin repro -- --scale smoke all
//! ```
//!
//! Artifacts: `fig7 table1 fig8` (simulated study; `fig7` also writes
//! `fig7.svg`), `table2 table3 fig9 fig10 fig11 fig12 table4`
//! (real-life study), `fig13` (timing), `ablation` (design-choice
//! ablations), `all`.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "L5: a binary owns its stdout and stderr"
)]

use qcat_study::reallife::{RealLifeStudy, RealLifeStudyConfig};
use qcat_study::simulated::{SimulatedStudy, SimulatedStudyConfig};
use qcat_study::timing::{
    render_figure13, render_phase_profile, run_timing_study, TimingConfig,
};
use qcat_study::{StudyEnv, StudyScale, Technique};

const SEED: u64 = 2004;

/// Progress reporting that keeps stderr pure in JSONL mode: with
/// `QCAT_TRACE=json` the line becomes a `repro.progress` event in the
/// trace stream (stderr may BE that stream), otherwise plain stderr.
fn progress(trace_mode: qcat_obs::TraceMode, msg: &str) {
    if trace_mode == qcat_obs::TraceMode::Json {
        qcat_obs::event!("repro.progress", msg = msg);
    } else {
        eprintln!("{msg}");
    }
}

fn main() {
    let trace_mode = qcat_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = StudyScale::Standard;
    let mut wants: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => StudyScale::Smoke,
                    Some("standard") => StudyScale::Standard,
                    Some("paper") => StudyScale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?} (smoke|standard|paper)");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            artifact => wants.push(artifact.to_string()),
        }
        i += 1;
    }
    if wants.is_empty() {
        wants.push("all".to_string());
    }
    let all = wants.iter().any(|w| w == "all");
    let want = |name: &str| all || wants.iter().any(|w| w == name);

    progress(
        trace_mode,
        &format!("generating dataset at {scale:?} scale (seed {SEED})..."),
    );
    let env = {
        let _span = qcat_obs::span!("repro.dataset");
        StudyEnv::generate(scale, SEED)
    };
    progress(
        trace_mode,
        &format!(
            "  {} homes, {} workload queries parsed",
            env.relation.len(),
            env.log.len()
        ),
    );

    let simulated_wanted = ["fig7", "table1", "fig8"].iter().any(|a| want(a));
    if simulated_wanted {
        let _span = qcat_obs::span!("repro.simulated");
        progress(
            trace_mode,
            "running simulated cross-validated study (Section 6.2)...",
        );
        let cfg = match scale {
            StudyScale::Smoke => SimulatedStudyConfig {
                n_subsets: 2,
                subset_size: 10,
            },
            _ => SimulatedStudyConfig::default(),
        };
        let study = SimulatedStudy::run(&env, &cfg);
        if study.shortfall > 0 {
            progress(
                trace_mode,
                &format!(
                    "  note: {} requested explorations not eligible at this scale",
                    study.shortfall
                ),
            );
        }
        if want("fig7") {
            println!("{}", study.figure7());
            let plot = qcat_study::ScatterPlot::new(
                "Figure 7: correlation between actual and estimated cost",
                "Estimated Cost",
                "Actual Cost",
                study.figure7_points(),
            );
            let plot = match study.figure7_slope() {
                Some(s) => plot.with_slope(s),
                None => plot,
            };
            match std::fs::write("fig7.svg", plot.render()) {
                Ok(()) => progress(trace_mode, "  wrote fig7.svg"),
                Err(e) => progress(trace_mode, &format!("  could not write fig7.svg: {e}")),
            }
        }
        if want("table1") {
            println!("Table 1: Pearson's correlation between estimated and actual cost");
            println!("{}", study.table1().render());
        }
        if want("fig8") {
            println!("Figure 8: fractional cost AVG CostAll(W,T)/|Result(Qw)| per subset");
            println!("{}", study.figure8().render());
            println!(
                "mean fractional cost: cost-based {:.3}, attr-cost {:.3}, no-cost {:.3}\n",
                study.mean_fractional_cost(Technique::CostBased),
                study.mean_fractional_cost(Technique::AttrCost),
                study.mean_fractional_cost(Technique::NoCost),
            );
        }
    }

    let reallife_wanted = [
        "table2", "table3", "fig9", "fig10", "fig11", "fig12", "table4",
    ]
    .iter()
    .any(|a| want(a));
    if reallife_wanted {
        let _span = qcat_obs::span!("repro.reallife");
        progress(trace_mode, "running simulated real-life study (Section 6.3)...");
        let study = RealLifeStudy::run(&env, &RealLifeStudyConfig::default());
        if want("table2") {
            println!("Table 2: correlation between actual and estimated cost (per user)");
            println!("{}", study.table2().render());
        }
        if want("table3") {
            println!("Table 3: cost-based categorization vs no categorization (normalized cost)");
            println!("{}", study.table3().render());
        }
        if want("fig9") {
            println!("Figure 9: avg cost (#items examined till all relevant tuples found)");
            println!("{}", study.figure9().render());
        }
        if want("fig10") {
            println!("Figure 10: avg number of relevant tuples found");
            println!("{}", study.figure10().render());
        }
        if want("fig11") {
            println!("Figure 11: avg normalized cost (#items examined per relevant tuple)");
            println!("{}", study.figure11().render());
        }
        if want("fig12") {
            println!("Figure 12: avg cost (#items examined till first relevant tuple)");
            println!("{}", study.figure12().render());
        }
        if want("table4") {
            println!("Table 4: post-study survey (best technique per subject)");
            println!("{}", study.table4().render());
        }
    }

    if want("ablation") {
        use qcat_study::ablation;
        let _span = qcat_obs::span!("repro.ablation");
        progress(trace_mode, "running design-choice ablations...");
        let stats = env.stats_for(&env.log);
        let n = match scale {
            StudyScale::Smoke => 8,
            _ => 40,
        };
        let batch = ablation::AblationBatch::collect(&env, n);
        println!(
            "Ablation 1: sibling ordering (Appendix A optimal vs heuristic), {} queries",
            batch.cases.len()
        );
        println!(
            "{}",
            ablation::ordering_ablation(&env, &stats, &batch).render()
        );
        println!("Ablation 2: numeric bucket-count policy");
        println!(
            "{}",
            ablation::bucket_count_ablation(&env, &stats, &batch).render()
        );
        println!("Ablation 3: attribute-elimination threshold x");
        println!(
            "{}",
            ablation::threshold_ablation(&env, &stats, &batch).render()
        );
        println!("Ablation 4: independence vs correlation-aware probabilities");
        println!("{}", ablation::correlation_ablation(&env, &batch).render());
    }

    if want("fig13") {
        let _span = qcat_obs::span!("repro.fig13");
        progress(trace_mode, "running timing study (Figure 13)...");
        let cfg = match scale {
            StudyScale::Smoke => TimingConfig {
                queries: 10,
                result_size_range: (100, 6_000),
                ..Default::default()
            },
            _ => TimingConfig::default().scaled_to(env.relation.len()),
        };
        let study = run_timing_study(&env, &cfg);
        println!("Figure 13: avg execution time of cost-based categorization");
        println!("{}", render_figure13(&study.rows).render());
        println!("Figure 13 companion: per-phase profile of the sweep");
        println!("{}", render_phase_profile(&study.profile).render());
    }

    qcat_obs::finish_global();
}

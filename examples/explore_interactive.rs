//! Interactive category-tree explorer — a terminal stand-in for the
//! paper's web treeview UI, instrumented with the same
//! information-overload accounting the studies use.
//!
//! ```text
//! cargo run --release --example explore_interactive            # interactive
//! echo "cat 1\ncat 2\ntuples 2\ncost\nquit" | \
//!     cargo run --release --example explore_interactive        # scripted
//! ```
//!
//! Commands:
//!   `ls`            show the current node's subcategories (SHOWCAT)
//!   `cat <n>`       drill into subcategory n
//!   `up`            back to the parent
//!   `tuples [n]`    browse the node's tuples (SHOWTUPLES; first n)
//!   `cost`          items examined so far (labels + tuples)
//!   `tree`          render the whole tree two levels deep
//!   `quit`          exit

use qcat::core::{CategoryTree, NodeId};
use qcat::exec::{execute, ExecOptions};
use qcat::sql::parse_and_normalize;
use qcat::study::{StudyEnv, StudyScale, Technique};
use std::io::{self, BufRead, Write};

struct Session {
    tree: CategoryTree,
    current: NodeId,
    labels_examined: usize,
    tuples_examined: usize,
}

impl Session {
    fn show_children(&mut self) {
        let node = self.tree.node(self.current);
        if node.is_leaf() {
            println!("  (leaf category — use `tuples` to browse)");
            return;
        }
        for (i, &child) in node.children.iter().enumerate() {
            let c = self.tree.node(child);
            let label = c
                .label
                .as_ref()
                .map(|l| l.render(self.tree.relation()))
                .unwrap_or_else(|| "ALL".into());
            println!("  [{i}] {label}  ({} tuples)", c.tuple_count());
            self.labels_examined += 1;
        }
    }

    fn show_tuples(&mut self, limit: usize) {
        let node = self.tree.node(self.current);
        let schema = self.tree.relation().schema().clone();
        let names: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
        println!("  {}", names.join(" | "));
        for &row in node.tset.iter().take(limit) {
            let values = self
                .tree
                .relation()
                .row(row as usize)
                .expect("row ids valid");
            let rendered: Vec<String> = values.iter().map(ToString::to_string).collect();
            println!("  {}", rendered.join(" | "));
            self.tuples_examined += 1;
        }
        if node.tuple_count() > limit {
            println!("  … {} more", node.tuple_count() - limit);
        }
    }

    fn breadcrumb(&self) -> String {
        let path = self.tree.path_labels(self.current);
        if path.is_empty() {
            "ALL".to_string()
        } else {
            let parts: Vec<String> = path
                .iter()
                .map(|l| l.render(self.tree.relation()))
                .collect();
            format!("ALL > {}", parts.join(" > "))
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("generating dataset and building the category tree...");
    let env = StudyEnv::generate(StudyScale::Smoke, 2);
    let stats = env.stats_for(&env.log);
    let seattle = env
        .geography
        .region_of("Bellevue")
        .expect("standard geography")
        .neighborhoods
        .iter()
        .map(|h| format!("'{h}'"))
        .collect::<Vec<_>>()
        .join(", ");
    let sql = format!(
        "SELECT * FROM listproperty WHERE neighborhood IN ({seattle}) \
         AND price BETWEEN 200000 AND 500000"
    );
    let query = parse_and_normalize(&sql, env.relation.schema())?;
    let result = execute(&env.relation, &query, &ExecOptions::default())?;
    let tree = env.categorize(&stats, Technique::CostBased, &result, Some(&query));
    println!(
        "{} listings categorized into {} categories (depth {}).",
        result.len(),
        tree.node_count() - 1,
        tree.depth()
    );
    println!("Type `ls` to see categories, `quit` to exit.\n");

    let mut session = Session {
        tree,
        current: NodeId::ROOT,
        labels_examined: 0,
        tuples_examined: 0,
    };
    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("{} $ ", session.breadcrumb());
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("ls") => session.show_children(),
            Some("cat") => {
                let idx: usize = match parts.next().and_then(|s| s.parse().ok()) {
                    Some(i) => i,
                    None => {
                        println!("  usage: cat <index>");
                        continue;
                    }
                };
                let children = &session.tree.node(session.current).children;
                match children.get(idx) {
                    Some(&child) => session.current = child,
                    None => println!("  no subcategory {idx}"),
                }
            }
            Some("up") => {
                if let Some(parent) = session.tree.node(session.current).parent {
                    session.current = parent;
                } else {
                    println!("  already at the root");
                }
            }
            Some("tuples") => {
                let limit = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(usize::MAX);
                session.show_tuples(limit);
            }
            Some("cost") => {
                println!(
                    "  examined {} labels + {} tuples = {} items",
                    session.labels_examined,
                    session.tuples_examined,
                    session.labels_examined + session.tuples_examined
                );
            }
            Some("tree") => {
                println!("{}", qcat::core::render_tree(&session.tree, 2));
            }
            Some("quit") | Some("exit") => break,
            Some(other) => println!("  unknown command `{other}`"),
            None => {}
        }
    }
    println!(
        "\nsession total: {} items examined ({} labels, {} tuples)",
        session.labels_examined + session.tuples_examined,
        session.labels_examined,
        session.tuples_examined
    );
    Ok(())
}

//! The cost-based multilevel categorization algorithm (paper
//! Figure 6).
//!
//! Levels are created one at a time. For level `l`, every retained,
//! not-yet-used attribute is a candidate; each candidate is used to
//! partition every level-`(l−1)` node holding more than `M` tuples,
//! the resulting one-level subtrees are priced with Equation (1)
//! (children priced as leaves, since deeper levels do not exist yet),
//! and the attribute with minimum `Σ_C P(C)·CostAll(Tree(C,A))` wins.
//!
//! The partition/price phases are fused and parallel: each
//! `(candidate attribute × oversized node)` pair is one work item for
//! the [`qcat_pool::ThreadPool`], and a work item *prices* its
//! would-be partitioning from a counting pass
//! ([`CategoricalPlan::priced_split`],
//! [`NumericPlan::priced_split_in_window`]) without materializing
//! tuple-sets — only the winning attribute's partitionings are ever
//! built. Costs are reduced serially in (candidate, node) order, so
//! the float sums — and therefore the tree — are byte-identical at
//! every thread count. Shared work is cached per categorization, since
//! none of it depends on the level: one occ-sorted [`CategoricalPlan`]
//! per categorical attribute, one goodness-ranked [`NumericPlan`] per
//! numeric attribute, and one [`ProbCache`] memoizing `Pw` per
//! attribute and `P(C)` per numeric interval.

use crate::config::CategorizeConfig;
use crate::cost::one_level_cost_all;
use crate::label::{CategoricalCol, CategoryLabel};
use crate::partition::categorical::{CategoricalPlan, ValueOrder};
use crate::partition::numeric::{query_window, NumericPlan};
use crate::partition::{Part, Partitioning};
use crate::probability::ProbCache;
use crate::tree::{CategoryTree, DegradeReason, NodeId};
use qcat_data::{AttrId, AttrType, Relation};
use qcat_exec::ResultSet;
use qcat_pool::ThreadPool;
use qcat_sql::{NormalizedQuery, NumericRange};
use qcat_workload::WorkloadStatistics;

/// One level's decision record in a [`CategorizeTrace`].
#[derive(Debug, Clone)]
pub struct LevelDecision {
    /// The level created (1-based).
    pub level: usize,
    /// The winning categorizing attribute.
    pub chosen: AttrId,
    /// `Σ P(C)·CostAll(Tree(C,A))` for every candidate, in evaluation
    /// order.
    pub candidate_costs: Vec<(AttrId, f64)>,
    /// Nodes with more than `M` tuples that were partitioned.
    pub nodes_partitioned: usize,
    /// Categories created at this level.
    pub categories_created: usize,
}

/// Why the tree looks the way it does: the per-level candidate costs
/// the Figure-6 loop compared. Produced by
/// [`Categorizer::categorize_traced`]; render with `to_string()`.
#[derive(Debug, Clone, Default)]
pub struct CategorizeTrace {
    /// One record per created level.
    pub levels: Vec<LevelDecision>,
}

impl CategorizeTrace {
    /// Render with attribute names resolved against `schema`.
    pub fn render(&self, schema: &qcat_data::Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.levels {
            let _ = writeln!(
                out,
                "level {} ({}): partitioned {} nodes into {} categories",
                d.level,
                schema.name_of(d.chosen),
                d.nodes_partitioned,
                d.categories_created
            );
            for (attr, cost) in &d.candidate_costs {
                let marker = if *attr == d.chosen { " <- chosen" } else { "" };
                let _ = writeln!(
                    out,
                    "    {:<16} cost {cost:>10.1}{marker}",
                    schema.name_of(*attr)
                );
            }
        }
        out
    }
}

impl std::fmt::Display for CategorizeTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.levels {
            writeln!(
                f,
                "level {}: partitioned {} nodes into {} categories",
                d.level, d.nodes_partitioned, d.categories_created
            )?;
            for (attr, cost) in &d.candidate_costs {
                let marker = if *attr == d.chosen { " <- chosen" } else { "" };
                writeln!(f, "    attr {attr}: cost {cost:.1}{marker}")?;
            }
        }
        Ok(())
    }
}

/// How one candidate attribute partitions a node — the plan a pool
/// work item reads, built once per categorization.
enum CandPlan<'a> {
    /// Categorical: the occ-sorted plan plus the column proof and `Pw`.
    Cat {
        col: CategoricalCol<'a>,
        plan: CategoricalPlan,
        pw: f64,
    },
    /// Numeric: the ranked splitpoints, `Pw`, and the query's window
    /// for the attribute, which applies at the root only.
    Num {
        plan: NumericPlan,
        pw: f64,
        root_window: Option<(f64, f64)>,
    },
    /// No partitioning possible: every node stays a leaf and is priced
    /// as the user scanning its tuples.
    Leaf,
}

/// One priced `(candidate, node)` work item.
#[derive(Debug, Clone, Copy)]
struct PricedItem {
    /// The node's contribution `P(node)·CostAll(Tree(C, A))`.
    term: f64,
    /// Categories the split would create.
    categories: usize,
    /// The node has a value window on the attribute: a query window
    /// at the root, or at least two distinct values. A numeric
    /// candidate no node of the level can partition is a leaf level
    /// (Figure 6 attaches nothing when it wins).
    partitionable: bool,
}

/// The cost-based categorizer.
///
/// Holds a reference to the preprocessed workload statistics (shared
/// across queries) and a configuration. See the crate docs for a full
/// example.
#[derive(Debug, Clone, Copy)]
pub struct Categorizer<'a> {
    stats: &'a WorkloadStatistics,
    config: CategorizeConfig,
}

impl<'a> Categorizer<'a> {
    /// Create a categorizer.
    pub fn new(stats: &'a WorkloadStatistics, config: CategorizeConfig) -> Self {
        Categorizer { stats, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CategorizeConfig {
        &self.config
    }

    /// Candidate categorizing attributes after the Section 5.1.1
    /// elimination step, in schema order.
    pub fn candidate_attrs(&self) -> Vec<AttrId> {
        self.stats
            .retained_attrs(self.config.attr_threshold)
            .into_iter()
            .filter(|&a| self.stats.partitionable(a))
            .collect()
    }

    /// Build the min-cost category tree for `result`.
    ///
    /// `query` is the user query that produced `result`; when present,
    /// its range condition on a numeric attribute supplies the value
    /// window for partitioning the root (Section 5.1.3).
    pub fn categorize(&self, result: &ResultSet, query: Option<&NormalizedQuery>) -> CategoryTree {
        self.categorize_inner(result, query, None)
    }

    /// Like [`Categorizer::categorize`], but also returns the
    /// per-level decision trace — the candidate attributes considered,
    /// their estimated costs, and the winner (an `EXPLAIN` for the
    /// Figure-6 loop).
    pub fn categorize_traced(
        &self,
        result: &ResultSet,
        query: Option<&NormalizedQuery>,
    ) -> (CategoryTree, CategorizeTrace) {
        let mut trace = CategorizeTrace::default();
        let tree = self.categorize_inner(result, query, Some(&mut trace));
        (tree, trace)
    }

    fn categorize_inner(
        &self,
        result: &ResultSet,
        query: Option<&NormalizedQuery>,
        mut trace: Option<&mut CategorizeTrace>,
    ) -> CategoryTree {
        let relation = result.relation().clone();
        let probs = ProbCache::new(self.stats);
        let estimator = probs.estimator();
        let pool = ThreadPool::new(self.config.threads);
        // Budget governance: exhaustion is acted on only at serial
        // level boundaries, so a partially built level is discarded
        // wholesale and the surviving prefix is byte-identical to an
        // unbudgeted run's first levels at any thread count.
        let gas = qcat_fault::current_gas();
        let mut degraded: Option<DegradeReason> = None;
        let mut tree = CategoryTree::new(relation.clone(), result.rows().to_vec());
        let mut candidates = self.candidate_attrs();
        // Plans are level-independent: `plans[i]` belongs to
        // `candidates[i]`, built at the first level that needs it.
        let mut plans: Vec<CandPlan<'_>> = Vec::new();
        let mut root_span = qcat_obs::span!(
            "categorize",
            rows = result.rows().len(),
            max_leaf_tuples = self.config.max_leaf_tuples,
            threads = pool.threads(),
        );

        for _ in 0..self.config.max_levels {
            if let Some(g) = &gas {
                if let Err(e) = g.check() {
                    degraded = Some(e.into());
                    break;
                }
            }
            if qcat_fault::point("core.level").is_some() {
                degraded = Some(DegradeReason::Internal);
                break;
            }
            let current_level = tree.level_attrs().len();
            let _level_span = qcat_obs::span!("categorize.level", level = current_level + 1);

            // Phase 1 — elimination (Section 5.1.1 at the level
            // grain): keep only nodes over M tuples; stop when no node
            // needs subdividing or no candidate attribute remains.
            let s: Vec<NodeId> = {
                let mut phase = qcat_obs::span!("categorize.level.eliminate");
                let s: Vec<NodeId> = tree
                    .nodes_at_level(current_level)
                    .into_iter()
                    .filter(|&id| tree.node(id).tuple_count() > self.config.max_leaf_tuples)
                    .collect();
                if qcat_obs::active() {
                    phase.set("oversized_nodes", s.len());
                    phase.set("candidates", candidates.len());
                }
                s
            };
            if s.is_empty() || candidates.is_empty() {
                break;
            }
            // Tuples one counting pass over the oversized nodes
            // touches: the unit of work both per-level maps are
            // dispatched by (`qcat_pool::MIN_WORK_PER_WORKER`).
            let level_tuples: u64 = s.iter().map(|&id| tree.node(id).tuple_count() as u64).sum();

            // Phase 2 — partitioning (the paper's dominant phase),
            // fused with per-item pricing: every (candidate, node)
            // pair becomes one pool work item that *counts* the
            // would-be partitioning and prices it with Equation (1).
            // Each item opens a real span on its worker thread,
            // parented to this phase span via the pool's trace
            // propagation.
            for (i, &attr) in candidates.iter().enumerate() {
                // Plan building walks whole columns; poll the budget
                // per candidate so an exhausted query degrades here
                // instead of finishing the level's plans first.
                if let Some(g) = &gas {
                    if let Err(e) = g.check() {
                        degraded = Some(e.into());
                        break;
                    }
                }
                if i == plans.len() {
                    plans.push(self.plan(&relation, attr, query, &probs));
                }
            }
            if degraded.is_some() {
                break;
            }
            let (priced, leaf): (Vec<PricedItem>, Vec<bool>) = {
                let mut phase = qcat_obs::span!("categorize.level.partition");
                let items: Vec<(usize, NodeId)> = (0..plans.len())
                    .flat_map(|ci| s.iter().map(move |&id| (ci, id)))
                    .collect();
                let priced_plans = plans
                    .iter()
                    .filter(|p| !matches!(p, CandPlan::Leaf))
                    .count() as u64;
                let work = level_tuples * priced_plans;
                let priced = match pool.try_map_work(&items, work, |_, &(ci, id)| {
                    let mut item_span =
                        qcat_obs::span!("categorize.level.partition.item", cand = ci);
                    let priced = self.price_item(&tree, &relation, &plans[ci], id, &probs);
                    if qcat_obs::active() {
                        item_span.set("tuples", tree.node(id).tuple_count());
                        item_span.set("categories", priced.categories);
                    }
                    priced
                }) {
                    Ok(p) => p,
                    Err(e) => {
                        degraded = Some(degrade_reason(&e));
                        break;
                    }
                };
                // A candidate no node can partition is a leaf level:
                // it proposes no categories and attaches nothing.
                let leaf: Vec<bool> = priced
                    .chunks(s.len())
                    .map(|items| !items.iter().any(|p| p.partitionable))
                    .collect();
                if qcat_obs::active() {
                    phase.set("candidates", candidates.len());
                    phase.set("work", work);
                    phase.set("width", pool.width_for(work).min(items.len()));
                    phase.set(
                        "categories_proposed",
                        priced
                            .chunks(s.len())
                            .zip(&leaf)
                            .filter(|(_, &leaf)| !leaf)
                            .flat_map(|(items, _)| items.iter().map(|p| p.categories))
                            .sum::<usize>(),
                    );
                }
                (priced, leaf)
            };

            // Phase 3 — cost estimation: serial reduction of the
            // priced items in (candidate, node) order, reproducing the
            // serial algorithm's float sums exactly.
            let candidate_costs: Vec<(AttrId, f64)> = {
                let _phase = qcat_obs::span!("categorize.level.cost");
                candidates
                    .iter()
                    .zip(priced.chunks(s.len()).zip(&leaf))
                    .map(|(&attr, (items, &leaf))| {
                        if !leaf {
                            qcat_obs::counter("categorize.cost_evals", s.len() as i64);
                        }
                        let cost: f64 = items.iter().map(|p| p.term).sum();
                        (attr, cost)
                    })
                    .collect()
            };

            // Phase 4 — selection: first strict minimum wins (ties keep
            // the earlier candidate, i.e. schema order), then the
            // winner's partitionings are materialized and attached.
            let mut phase = qcat_obs::span!("categorize.level.select");
            let mut best_idx: Option<usize> = None;
            for (i, (_, cost)) in candidate_costs.iter().enumerate() {
                if best_idx.is_none_or(|b| *cost < candidate_costs[b].1) {
                    best_idx = Some(i);
                }
            }
            let Some(best_idx) = best_idx else { break };
            let attr = candidate_costs[best_idx].0;
            // Only the winner is materialized: the losers were priced
            // from counting passes and never allocated tuple-sets.
            let materialized: Result<Vec<(NodeId, Partitioning)>, qcat_pool::PoolError> = {
                let _mspan = qcat_obs::span!("categorize.level.select.materialize");
                match &plans[best_idx] {
                    _ if leaf[best_idx] => Ok(Vec::new()),
                    CandPlan::Leaf => Ok(Vec::new()),
                    CandPlan::Cat { col, plan, .. } => pool
                        .try_map_work(&s, level_tuples, |_, &id| {
                            let _item_span = qcat_obs::span!(
                                "categorize.level.select.materialize.item",
                                tuples = tree.node(id).tuple_count(),
                            );
                            plan.split_grouped(
                                col,
                                &tree.node(id).tset,
                                self.config.categorical_group_threshold,
                                self.config.grouping_top_k,
                            )
                        })
                        .map(|split| s.iter().copied().zip(split).collect()),
                    CandPlan::Num {
                        plan,
                        pw,
                        root_window,
                    } => pool
                        .try_map_work(&s, level_tuples, |_, &id| {
                            let _item_span = qcat_obs::span!(
                                "categorize.level.select.materialize.item",
                                tuples = tree.node(id).tuple_count(),
                            );
                            let node = tree.node(id);
                            let window = if id == NodeId::ROOT {
                                *root_window
                            } else {
                                None
                            };
                            plan.split_in_window(
                                &relation,
                                &node.tset,
                                &self.config,
                                &probs,
                                *pw,
                                window,
                            )
                            .unwrap_or_else(|| single_bucket(&relation, attr, &node.tset, &probs))
                        })
                        .map(|split| s.iter().copied().zip(split).collect()),
                }
            };
            let parts = match materialized {
                Ok(parts) => parts,
                Err(e) => {
                    degraded = Some(degrade_reason(&e));
                    break;
                }
            };
            let categories_created: usize = parts.iter().map(|(_, p)| p.len()).sum();
            // Charge structural growth before attaching anything: a
            // level that would bust a cap is dropped whole, keeping
            // the completed prefix identical to an unbudgeted run.
            if let Some(g) = &gas {
                let heap_estimate: usize = parts
                    .iter()
                    .flat_map(|(_, p)| p.parts.iter())
                    .map(|part| part.tset.len() * std::mem::size_of::<u32>() + 64)
                    .sum();
                let charged = g
                    .charge_nodes(categories_created)
                    .and_then(|()| g.charge_labels(categories_created))
                    .and_then(|()| g.charge_heap(heap_estimate));
                if let Err(e) = charged {
                    degraded = Some(e.into());
                    break;
                }
            }
            if qcat_obs::active() {
                phase.set("chosen", relation.schema().name_of(attr).to_string());
                phase.set("cost", candidate_costs[best_idx].1);
                qcat_obs::event!(
                    "categorize.level.decision",
                    level = current_level + 1,
                    chosen = relation.schema().name_of(attr).to_string(),
                    cost = candidate_costs[best_idx].1,
                    nodes_partitioned = s.len(),
                    categories_created = categories_created,
                );
            }
            if let Some(t) = trace.as_deref_mut() {
                t.levels.push(LevelDecision {
                    level: current_level + 1,
                    chosen: attr,
                    candidate_costs,
                    nodes_partitioned: s.len(),
                    categories_created,
                });
            }

            tree.push_level(attr);
            let pw = probs.p_showtuples(attr);
            let conditional =
                self.config.conditional_probabilities && self.stats.correlation_index().is_some();
            for (node, partitioning) in parts {
                // Path labels are cloned out because attaching children
                // mutates the tree.
                let path: Vec<CategoryLabel> = if conditional {
                    tree.path_labels(node).into_iter().cloned().collect()
                } else {
                    Vec::new()
                };
                let path_refs: Vec<&CategoryLabel> = path.iter().collect();
                for part in partitioning.parts {
                    // Parts carry the unconditional P(C) the
                    // partitioner derived; conditional mode replaces
                    // it with P(C | path).
                    let p = if conditional {
                        estimator.p_explore_conditional(&part.label, &path_refs)
                    } else {
                        part.p_explore
                    };
                    tree.add_child(node, part.label, part.tset, p);
                }
                let node_pw = if conditional {
                    estimator.p_showtuples_conditional(attr, &path_refs)
                } else {
                    pw
                };
                tree.set_p_showtuples(node, node_pw);
            }
            candidates.remove(best_idx);
            plans.remove(best_idx);
        }
        if self.config.ordering == crate::config::OrderingMode::OptimalOne {
            let _span = qcat_obs::span!("categorize.order");
            self.apply_optimal_ordering(&mut tree);
        }
        if let Some(reason) = degraded {
            tree.mark_degraded(reason);
            qcat_obs::counter("categorize.degraded", 1);
        }
        if qcat_obs::active() {
            root_span.set("levels", tree.level_attrs().len());
            root_span.set("nodes", tree.node_count());
            if let Some(reason) = tree.degraded() {
                root_span.set("degraded", reason.as_str());
            }
        }
        tree
    }

    /// The plan for candidate `attr`, shared by every level of one
    /// categorization.
    fn plan<'r>(
        &self,
        relation: &'r Relation,
        attr: AttrId,
        query: Option<&NormalizedQuery>,
        probs: &ProbCache<'_>,
    ) -> CandPlan<'r> {
        let pw = probs.p_showtuples(attr);
        match relation.schema().type_of(attr) {
            AttrType::Categorical => match CategoricalCol::of(relation, attr) {
                Some(col) => CandPlan::Cat {
                    plan: CategoricalPlan::build(&col, self.stats, ValueOrder::ByOccurrence),
                    col,
                    pw,
                },
                None => CandPlan::Leaf,
            },
            AttrType::Int | AttrType::Float => CandPlan::Num {
                plan: NumericPlan::build(self.stats, attr),
                pw,
                root_window: query_window(attr, query),
            },
        }
    }

    /// Price one `(candidate, node)` work item: the node's
    /// contribution `P(node)·CostAll(Tree(C, A))` to the candidate's
    /// level cost, plus the number of categories the split would
    /// create. Runs on pool workers — counting passes only, no
    /// materialized tuple-sets, no spans.
    fn price_item(
        &self,
        tree: &CategoryTree,
        relation: &Relation,
        plan: &CandPlan<'_>,
        id: NodeId,
        probs: &ProbCache<'_>,
    ) -> PricedItem {
        let node = tree.node(id);
        let scan = node.tuple_count() as f64; // 0/1-way split: user scans
        let (price, categories, partitionable) = match plan {
            CandPlan::Leaf => (scan, 0, false),
            CandPlan::Cat { col, plan, pw } => {
                let children = plan.priced_split(
                    col,
                    &node.tset,
                    self.config.categorical_group_threshold,
                    self.config.grouping_top_k,
                );
                let price = if children.len() < 2 {
                    scan
                } else {
                    one_level_cost_all(node.tuple_count(), *pw, self.config.label_cost, &children)
                };
                (price, children.len(), true)
            }
            CandPlan::Num {
                plan,
                pw,
                root_window,
            } => {
                let window = if id == NodeId::ROOT {
                    *root_window
                } else {
                    None
                };
                let priced = plan.priced_split_in_window(
                    relation,
                    &node.tset,
                    &self.config,
                    probs,
                    *pw,
                    window,
                );
                let partitionable = priced.spread || window.is_some();
                match priced.children {
                    Some(children) if children.len() >= 2 => (
                        one_level_cost_all(
                            node.tuple_count(),
                            *pw,
                            self.config.label_cost,
                            &children,
                        ),
                        children.len(),
                        partitionable,
                    ),
                    Some(children) => (scan, children.len(), partitionable),
                    // No usable splitpoint: the winner would fall back
                    // to a single covering bucket (one category).
                    None => (scan, 1, partitionable),
                }
            }
        };
        PricedItem {
            term: node.p_explore * price,
            categories,
            partitionable,
        }
    }

    /// Post-pass for [`crate::config::OrderingMode::OptimalOne`]:
    /// re-sort categorical sibling lists bottom-up by the Appendix-A
    /// criterion. Numeric levels keep ascending value order.
    fn apply_optimal_ordering(&self, tree: &mut CategoryTree) {
        let mut parents: Vec<NodeId> = tree
            .dfs()
            .into_iter()
            .filter(|&id| !tree.node(id).children.is_empty())
            .collect();
        // Deepest parents first so child CostOne values are final when
        // a parent reorders.
        parents.sort_by_key(|&id| std::cmp::Reverse(tree.node(id).level));
        for id in parents {
            // Non-leaf nodes always have a child level; skip rather
            // than panic if that invariant is ever broken.
            let Some(child_attr) = tree.subcategorizing_attr(id) else {
                continue;
            };
            if tree.relation().schema().type_of(child_attr) == AttrType::Categorical {
                crate::order::apply_optimal_one_order(
                    tree,
                    id,
                    self.config.label_cost,
                    self.config.frac,
                );
            }
        }
    }

    /// Materialize and price one candidate attribute for a level —
    /// the reference composition the fused pool path must agree with;
    /// tests use it to evaluate one candidate in isolation.
    #[cfg(test)]
    fn evaluate_attribute(
        &self,
        tree: &CategoryTree,
        relation: &Relation,
        s: &[NodeId],
        attr: AttrId,
        query: Option<&NormalizedQuery>,
        probs: &ProbCache<'_>,
    ) -> (f64, Vec<(NodeId, Partitioning)>) {
        let parts: Option<Vec<(NodeId, Partitioning)>> = match relation.schema().type_of(attr) {
            AttrType::Categorical => CategoricalCol::of(relation, attr).map(|col| {
                let plan = CategoricalPlan::build(&col, self.stats, ValueOrder::ByOccurrence);
                s.iter()
                    .map(|&id| {
                        (
                            id,
                            plan.split_grouped(
                                &col,
                                &tree.node(id).tset,
                                self.config.categorical_group_threshold,
                                self.config.grouping_top_k,
                            ),
                        )
                    })
                    .collect()
            }),
            AttrType::Int | AttrType::Float => {
                let window = |id: NodeId| {
                    if id == NodeId::ROOT {
                        query_window(attr, query)
                    } else {
                        None
                    }
                };
                // A level where no node has a value window is a leaf
                // level: nothing is partitioned.
                let partitionable = |id: NodeId| {
                    window(id).is_some()
                        || relation
                            .column(attr)
                            .numeric_min_max(&tree.node(id).tset)
                            .is_some_and(|(lo, hi)| lo < hi)
                };
                s.iter().copied().any(partitionable).then(|| {
                    let pw = probs.p_showtuples(attr);
                    let plan = NumericPlan::build(self.stats, attr);
                    s.iter()
                        .map(|&id| {
                            let node = tree.node(id);
                            let partitioning = plan
                                .split_in_window(
                                    relation,
                                    &node.tset,
                                    &self.config,
                                    probs,
                                    pw,
                                    window(id),
                                )
                                .unwrap_or_else(|| {
                                    single_bucket(relation, attr, &node.tset, probs)
                                });
                            (id, partitioning)
                        })
                        .collect()
                })
            }
        };
        let cost = match &parts {
            None => s
                .iter()
                .map(|&id| {
                    let n = tree.node(id);
                    n.p_explore * n.tuple_count() as f64
                })
                .sum(),
            Some(parts) => {
                let pw = probs.p_showtuples(attr);
                parts
                    .iter()
                    .map(|(id, p)| {
                        let node = tree.node(*id);
                        let price = if p.len() < 2 {
                            node.tuple_count() as f64
                        } else {
                            one_level_cost_all(
                                node.tuple_count(),
                                pw,
                                self.config.label_cost,
                                &p.children_for_pricing(),
                            )
                        };
                        node.p_explore * price
                    })
                    .sum()
            }
        };
        (cost, parts.unwrap_or_default())
    }
}

/// Map a pool failure to the degradation reason the tree reports:
/// budget trips keep their reason; panics and injected faults are
/// internal failures (the completed prefix is still sound).
fn degrade_reason(e: &qcat_pool::PoolError) -> DegradeReason {
    match e {
        qcat_pool::PoolError::Cancelled(b) => DegradeReason::from(*b),
        qcat_pool::PoolError::TaskPanicked { .. } | qcat_pool::PoolError::Fault(_) => {
            DegradeReason::Internal
        }
    }
}

/// Fallback single-bucket partitioning for a numeric attribute with no
/// usable splitpoint: the node gets one child covering its full
/// window, keeping it eligible for deeper levels (Figure 6 always
/// creates the level's categories).
fn single_bucket(
    relation: &Relation,
    attr: AttrId,
    tset: &[u32],
    probs: &ProbCache<'_>,
) -> Partitioning {
    let (lo, hi) = relation
        .column(attr)
        .numeric_min_max(tset)
        .unwrap_or((0.0, 0.0));
    let range = NumericRange::closed(lo, hi);
    Partitioning {
        attr,
        parts: vec![Part {
            p_explore: probs.p_explore_range(attr, &range),
            label: CategoryLabel::range(attr, range),
            tset: tset.to_vec(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BucketCount;
    use crate::probability::ProbabilityEstimator;
    use qcat_data::{Field, RelationBuilder, Schema};
    use qcat_exec::{execute, ExecOptions};
    use qcat_sql::parse_and_normalize;
    use qcat_workload::{PreprocessConfig, WorkloadLog};

    /// A small homes table: 3 neighborhoods × prices.
    fn homes(n: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
            Field::new("bedroomcount", AttrType::Int),
        ])
        .unwrap();
        let mut b = RelationBuilder::with_capacity(schema, n);
        let hoods = ["Redmond", "Bellevue", "Seattle", "Issaquah"];
        for i in 0..n {
            let hood = hoods[i % hoods.len()];
            let price = 200_000.0 + (i as f64 * 1_37.0) % 100_000.0;
            let beds = (i % 5 + 1) as i64;
            b.push_row(&[hood.into(), price.into(), beds.into()])
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn stats(rel: &Relation, queries: &[impl AsRef<str>]) -> WorkloadStatistics {
        let schema = rel.schema().clone();
        let log = WorkloadLog::parse(queries.iter().map(AsRef::as_ref), &schema, None);
        let cfg = PreprocessConfig::new()
            .with_interval(AttrId(1), 5_000.0)
            .with_interval(AttrId(2), 1.0)
            .infer_missing(rel, 100);
        WorkloadStatistics::build(&log, &schema, &cfg)
    }

    fn hot_workload() -> Vec<String> {
        let mut w = Vec::new();
        for _ in 0..60 {
            w.push("SELECT * FROM homes WHERE neighborhood IN ('Redmond','Bellevue')".to_string());
        }
        // Diverse price ranges so interior splitpoints carry signal.
        for i in 0..50 {
            let lo = 200_000 + (i % 10) * 10_000;
            let hi = lo + 20_000 + (i % 3) * 15_000;
            w.push(format!(
                "SELECT * FROM homes WHERE price BETWEEN {lo} AND {hi}"
            ));
        }
        for _ in 0..20 {
            w.push("SELECT * FROM homes WHERE bedroomcount BETWEEN 3 AND 4".to_string());
        }
        for _ in 0..10 {
            w.push("SELECT * FROM homes".to_string());
        }
        w
    }

    #[test]
    fn builds_a_valid_multilevel_tree() {
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE price BETWEEN 200000 AND 300000",
            rel.schema(),
        )
        .unwrap();
        let result = execute(&rel, &q, &ExecOptions::default()).unwrap();
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(20)
            .with_attr_threshold(0.1)
            .with_bucket_count(BucketCount::Fixed(5));
        let tree = Categorizer::new(&st, config).categorize(&result, Some(&q));
        tree.check_invariants().unwrap();
        assert!(tree.depth() >= 2, "expected a multilevel tree");
        // Every leaf respects M — enough attributes exist here.
        for id in tree.dfs() {
            let node = tree.node(id);
            if node.is_leaf() {
                assert!(
                    node.tuple_count() <= 20,
                    "leaf {id} has {} tuples",
                    node.tuple_count()
                );
            }
        }
        // No attribute repeats across levels.
        let attrs = tree.level_attrs();
        let mut dedup = attrs.to_vec();
        dedup.dedup();
        assert_eq!(attrs.len(), dedup.len());
    }

    #[test]
    fn first_level_uses_the_hottest_attribute() {
        let rel = homes(300);
        // Neighborhood constrained by nearly all queries → usage
        // fraction near 1; expect it at level 1.
        let mut w = Vec::new();
        w.extend(std::iter::repeat_n(
            "SELECT * FROM homes WHERE neighborhood IN ('Redmond')",
            95,
        ));
        w.extend(std::iter::repeat_n(
            "SELECT * FROM homes WHERE price BETWEEN 200000 AND 220000",
            30,
        ));
        let st = stats(&rel, &w);
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default().with_attr_threshold(0.1);
        let tree = Categorizer::new(&st, config).categorize(&result, None);
        assert_eq!(tree.level_attr(1), Some(AttrId(0)));
    }

    #[test]
    fn small_results_stay_flat() {
        let rel = homes(15);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let tree = Categorizer::new(&st, CategorizeConfig::default()).categorize(&result, None);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn empty_result_is_just_a_root() {
        let rel = homes(50);
        let st = stats(&rel, &hot_workload());
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE price BETWEEN 1 AND 2",
            rel.schema(),
        )
        .unwrap();
        let result = execute(&rel, &q, &ExecOptions::default()).unwrap();
        assert!(result.is_empty());
        let tree = Categorizer::new(&st, CategorizeConfig::default()).categorize(&result, Some(&q));
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn attribute_elimination_respected() {
        let rel = homes(300);
        // bedroomcount almost never queried; with x=0.4 it must never
        // categorize a level.
        let st = stats(&rel, &hot_workload()); // beds in 20/140 ≈ 0.14
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default().with_attr_threshold(0.4);
        let cat = Categorizer::new(&st, config);
        assert!(!cat.candidate_attrs().contains(&AttrId(2)));
        let tree = cat.categorize(&result, None);
        assert!(!tree.level_attrs().contains(&AttrId(2)));
    }

    #[test]
    fn max_levels_caps_depth() {
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default()
            .with_attr_threshold(0.05)
            .with_max_leaf_tuples(5)
            .with_max_levels(1);
        let tree = Categorizer::new(&st, config).categorize(&result, None);
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn categorization_is_deterministic() {
        let rel = homes(250);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default().with_attr_threshold(0.1);
        let t1 = Categorizer::new(&st, config).categorize(&result, None);
        let t2 = Categorizer::new(&st, config).categorize(&result, None);
        assert_eq!(t1.node_count(), t2.node_count());
        assert_eq!(t1.level_attrs(), t2.level_attrs());
        for (a, b) in t1.dfs().iter().zip(t2.dfs().iter()) {
            assert_eq!(t1.node(*a).tset, t2.node(*b).tset);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_tree() {
        let rel = homes(350);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let base = CategorizeConfig::default().with_attr_threshold(0.1);
        let reference = Categorizer::new(&st, base.with_threads(1)).categorize(&result, None);
        for threads in [2, 3, 8] {
            let tree = Categorizer::new(&st, base.with_threads(threads)).categorize(&result, None);
            assert_eq!(
                tree.node_count(),
                reference.node_count(),
                "threads={threads}"
            );
            assert_eq!(tree.level_attrs(), reference.level_attrs());
            for (a, b) in tree.dfs().iter().zip(reference.dfs().iter()) {
                assert_eq!(tree.node(*a).tset, reference.node(*b).tset);
                assert_eq!(
                    tree.node(*a).p_explore.to_bits(),
                    reference.node(*b).p_explore.to_bits(),
                    "P(C) must be bit-identical across thread counts"
                );
            }
        }
    }

    #[test]
    fn optimal_ordering_never_hurts_cost_one() {
        use crate::config::OrderingMode;
        use crate::cost::cost_one;
        let rel = homes(300);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let base = CategorizeConfig::default().with_attr_threshold(0.1);
        let heuristic = Categorizer::new(&st, base).categorize(&result, None);
        let optimal = Categorizer::new(&st, base.with_ordering(OrderingMode::OptimalOne))
            .categorize(&result, None);
        optimal.check_invariants().unwrap();
        // Same structure, possibly different sibling order.
        assert_eq!(heuristic.node_count(), optimal.node_count());
        let h = cost_one(&heuristic, base.label_cost, base.frac).total();
        let o = cost_one(&optimal, base.label_cost, base.frac).total();
        assert!(o <= h + 1e-9, "optimal {o} vs heuristic {h}");
        // CostAll is order-independent.
        let ha = crate::cost::cost_all(&heuristic, base.label_cost).total();
        let oa = crate::cost::cost_all(&optimal, base.label_cost).total();
        assert!((ha - oa).abs() < 1e-9);
    }

    #[test]
    fn categorical_grouping_caps_fanout() {
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default()
            .with_attr_threshold(0.1)
            .with_categorical_grouping(3, 2);
        let tree = Categorizer::new(&st, config).categorize(&result, None);
        tree.check_invariants().unwrap();
        // Wherever a categorical level fans out, at most top_k + 1
        // children.
        for id in tree.dfs() {
            let node = tree.node(id);
            if node.children.is_empty() {
                continue;
            }
            let attr = tree.subcategorizing_attr(id).unwrap();
            if rel.schema().type_of(attr) == AttrType::Categorical {
                assert!(
                    node.children.len() <= 3,
                    "{id} has {} categorical children",
                    node.children.len()
                );
            }
        }
    }

    #[test]
    fn conditional_probabilities_capture_regional_correlation() {
        // Two regions with disjoint price interest: workload queries
        // about hood A want cheap homes, about hood B expensive ones.
        let rel = {
            let schema = Schema::new(vec![
                Field::new("neighborhood", AttrType::Categorical),
                Field::new("price", AttrType::Float),
            ])
            .unwrap();
            let mut b = RelationBuilder::new(schema);
            for i in 0..200 {
                let (hood, base) = if i % 2 == 0 {
                    ("A", 100_000.0)
                } else {
                    ("B", 800_000.0)
                };
                b.push_row(&[hood.into(), (base + (i as f64) * 321.0).into()])
                    .unwrap();
            }
            b.finish().unwrap()
        };
        let schema = rel.schema().clone();
        let mut w = Vec::new();
        for i in 0..40 {
            let lo = 100_000 + (i % 4) * 10_000;
            w.push(format!(
                "SELECT * FROM t WHERE neighborhood IN ('A') AND price BETWEEN {lo} AND {}",
                lo + 20_000
            ));
            let hi_lo = 800_000 + (i % 4) * 10_000;
            w.push(format!(
                "SELECT * FROM t WHERE neighborhood IN ('B') AND price BETWEEN {hi_lo} AND {}",
                hi_lo + 20_000
            ));
        }
        let log = qcat_workload::WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
        let prep = PreprocessConfig::new().with_interval(AttrId(1), 5_000.0);
        let stats = WorkloadStatistics::build_with_correlation(&log, &schema, &prep);
        let config = CategorizeConfig::default()
            .with_max_leaf_tuples(10)
            .with_attr_threshold(0.1)
            .with_conditional_probabilities(true);
        let result = ResultSet::whole(rel.clone());
        let tree = Categorizer::new(&stats, config).categorize(&result, None);
        tree.check_invariants().unwrap();
        // The estimator is the unit under test: conditioned on hood A,
        // cheap price buckets must look hot and expensive ones cold,
        // while the unconditional estimate cannot tell them apart.
        let est = ProbabilityEstimator::new(&stats);
        let hood_a = CategoricalCol::of(&rel, AttrId(0))
            .unwrap()
            .label_of_value("A")
            .unwrap();
        let cheap = CategoryLabel::range(AttrId(1), NumericRange::half_open(100_000.0, 200_000.0));
        let rich = CategoryLabel::range(AttrId(1), NumericRange::half_open(800_000.0, 900_000.0));
        let path = [&hood_a];
        let p_cheap_a = est.p_explore_conditional(&cheap, &path);
        let p_rich_a = est.p_explore_conditional(&rich, &path);
        assert!(
            p_cheap_a > 0.9 && p_rich_a < 0.1,
            "conditioned on A: cheap {p_cheap_a}, rich {p_rich_a}"
        );
        // Unconditional: both bucket kinds overlap ~half the queries.
        let p_cheap = est.p_explore(&cheap);
        let p_rich = est.p_explore(&rich);
        assert!((p_cheap - 0.5).abs() < 0.2, "{p_cheap}");
        assert!((p_rich - 0.5).abs() < 0.2, "{p_rich}");
    }

    #[test]
    fn trace_records_level_decisions() {
        let rel = homes(300);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default().with_attr_threshold(0.1);
        let cat = Categorizer::new(&st, config);
        let (tree, trace) = cat.categorize_traced(&result, None);
        // One decision per created level, matching the tree.
        assert_eq!(trace.levels.len(), tree.level_attrs().len());
        for (i, d) in trace.levels.iter().enumerate() {
            assert_eq!(d.level, i + 1);
            assert_eq!(Some(d.chosen), tree.level_attr(i + 1));
            // The chosen attribute has the minimum recorded cost.
            let min = d
                .candidate_costs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(min.0, d.chosen);
            assert!(d.nodes_partitioned >= 1);
            assert!(d.categories_created >= 1);
        }
        // Level 1 considered every candidate.
        assert_eq!(
            trace.levels[0].candidate_costs.len(),
            cat.candidate_attrs().len()
        );
        // The rendering names the chosen attribute.
        let text = trace.to_string();
        assert!(text.contains("<- chosen"), "{text}");
        // Traced and untraced runs build the same tree.
        let plain = cat.categorize(&result, None);
        assert_eq!(plain.node_count(), tree.node_count());
    }

    #[test]
    fn cost_of_chosen_tree_not_worse_than_alternatives() {
        // The level-1 attribute choice minimizes the one-level cost:
        // verify by brute-forcing the other attribute choices with the
        // reference (materializing) evaluation path.
        let rel = homes(300);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default()
            .with_attr_threshold(0.1)
            .with_max_levels(1);
        let cat = Categorizer::new(&st, config);
        let tree = cat.categorize(&result, None);
        let chosen = tree.level_attr(1).unwrap();
        let probs = ProbCache::new(&st);
        let s = vec![NodeId::ROOT];
        let base = CategoryTree::new(rel.clone(), result.rows().to_vec());
        let mut best_cost = f64::INFINITY;
        let mut best_attr = None;
        for attr in cat.candidate_attrs() {
            let (cost, _) = cat.evaluate_attribute(&base, &rel, &s, attr, None, &probs);
            if cost < best_cost {
                best_cost = cost;
                best_attr = Some(attr);
            }
        }
        assert_eq!(best_attr, Some(chosen));
    }

    #[test]
    fn node_cap_degrades_to_completed_prefix_at_any_thread_count() {
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let base = CategorizeConfig::default()
            .with_max_leaf_tuples(20)
            .with_attr_threshold(0.1)
            .with_bucket_count(BucketCount::Fixed(5));
        // Unbudgeted reference: a multilevel tree.
        let full = Categorizer::new(&st, base).categorize(&result, None);
        assert!(full.depth() >= 2);
        assert_eq!(full.degraded(), None);
        let level1 = full.nodes_at_level(1).len();
        // Cap nodes so level 1 fits but level 2 cannot: the budgeted
        // tree must be exactly the unbudgeted tree's first level,
        // marked degraded — at every thread count (the cap is charged
        // at serial level boundaries, never from workers).
        let budget = qcat_fault::Budget::UNLIMITED.with_max_nodes(level1);
        let mut reference: Option<CategoryTree> = None;
        for threads in [1, 2, 3, 8] {
            let gas = budget.start();
            let tree = qcat_fault::with_budget(&gas, || {
                Categorizer::new(&st, base.with_threads(threads)).categorize(&result, None)
            });
            assert_eq!(
                tree.degraded(),
                Some(DegradeReason::Nodes),
                "threads={threads}"
            );
            tree.check_invariants().unwrap();
            assert_eq!(tree.depth(), 1, "threads={threads}");
            assert_eq!(tree.level_attrs(), &full.level_attrs()[..1]);
            for (a, b) in tree.dfs().iter().zip(full.dfs().iter()) {
                if tree.node(*a).level <= 1 && full.node(*b).level <= 1 {
                    assert_eq!(tree.node(*a).tset, full.node(*b).tset);
                }
            }
            if let Some(r) = &reference {
                assert_eq!(tree.node_count(), r.node_count());
            }
            reference = Some(tree);
        }
    }

    #[test]
    fn expired_deadline_yields_flat_fallback() {
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default().with_attr_threshold(0.1);
        let gas = qcat_fault::Budget::UNLIMITED
            .with_deadline(std::time::Duration::ZERO)
            .start();
        let tree = qcat_fault::with_budget(&gas, || {
            Categorizer::new(&st, config).categorize(&result, None)
        });
        // No level completed: root-only tree = flat listing fallback.
        assert_eq!(tree.degraded(), Some(DegradeReason::Deadline));
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.node(NodeId::ROOT).tset.len(), rel.len());
    }

    #[test]
    fn injected_worker_fault_degrades_instead_of_panicking() {
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let base = CategorizeConfig::default().with_attr_threshold(0.1);
        for spec in ["pool.task:panic", "pool.task:error"] {
            let plan = qcat_fault::FaultPlan::parse(spec).unwrap();
            for threads in [1, 4] {
                let tree = qcat_fault::with_plan(&plan, || {
                    Categorizer::new(&st, base.with_threads(threads)).categorize(&result, None)
                });
                assert_eq!(
                    tree.degraded(),
                    Some(DegradeReason::Internal),
                    "{spec} threads={threads}"
                );
                tree.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn fused_pricing_agrees_with_materialized_evaluation() {
        // price_item (counting pass) and evaluate_attribute
        // (materializing reference) must produce bit-identical costs
        // for every candidate.
        let rel = homes(400);
        let st = stats(&rel, &hot_workload());
        let result = ResultSet::whole(rel.clone());
        let config = CategorizeConfig::default().with_attr_threshold(0.1);
        let cat = Categorizer::new(&st, config);
        let probs = ProbCache::new(&st);
        let s = vec![NodeId::ROOT];
        let base = CategoryTree::new(rel.clone(), result.rows().to_vec());
        for attr in cat.candidate_attrs() {
            let (reference, _) = cat.evaluate_attribute(&base, &rel, &s, attr, None, &probs);
            let plan = match rel.schema().type_of(attr) {
                AttrType::Categorical => {
                    let col = CategoricalCol::of(&rel, attr).unwrap();
                    let plan = CategoricalPlan::build(&col, &st, ValueOrder::ByOccurrence);
                    cat.price_item(
                        &base,
                        &rel,
                        &CandPlan::Cat {
                            col,
                            plan,
                            pw: probs.p_showtuples(attr),
                        },
                        NodeId::ROOT,
                        &probs,
                    )
                    .term
                }
                AttrType::Int | AttrType::Float => {
                    cat.price_item(
                        &base,
                        &rel,
                        &CandPlan::Num {
                            plan: NumericPlan::build(&st, attr),
                            pw: probs.p_showtuples(attr),
                            root_window: None,
                        },
                        NodeId::ROOT,
                        &probs,
                    )
                    .term
                }
            };
            assert_eq!(
                plan.to_bits(),
                reference.to_bits(),
                "attr {attr:?}: fused {plan} vs reference {reference}"
            );
        }
    }

    /// Homes where `bedroomcount` is constant within each
    /// neighborhood, so once neighborhood partitions level 1 every
    /// level-2 node is single-valued on it; `with_price` adds a
    /// numeric candidate that can still split.
    fn single_valued_homes(with_price: bool) -> (Relation, WorkloadStatistics) {
        let mut fields = vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("bedroomcount", AttrType::Int),
        ];
        if with_price {
            fields.push(Field::new("price", AttrType::Float));
        }
        let schema = Schema::new(fields).unwrap();
        let mut b = RelationBuilder::new(schema.clone());
        let hoods = ["Redmond", "Bellevue", "Seattle", "Issaquah"];
        for i in 0..240usize {
            let mut row: Vec<qcat_data::Value> =
                vec![hoods[i % 4].into(), ((i % 4) as i64 + 1).into()];
            if with_price {
                row.push((100_000.0 + ((i * 7919) % 200) as f64 * 1_000.0).into());
            }
            b.push_row(&row).unwrap();
        }
        let rel = b.finish().unwrap();
        let mut w: Vec<String> = Vec::new();
        for i in 0..40 {
            w.push(format!(
                "SELECT * FROM t WHERE neighborhood IN ('{}')",
                hoods[i % 4]
            ));
            w.push(format!(
                "SELECT * FROM t WHERE bedroomcount BETWEEN {} AND {}",
                i % 3 + 1,
                i % 3 + 2
            ));
            if with_price {
                let lo = 100_000 + (i % 8) * 20_000;
                w.push(format!(
                    "SELECT * FROM t WHERE price BETWEEN {lo} AND {}",
                    lo + 40_000
                ));
            }
        }
        let mut cfg = PreprocessConfig::new().with_interval(AttrId(1), 1.0);
        if with_price {
            cfg = cfg.with_interval(AttrId(2), 10_000.0);
        }
        let log = WorkloadLog::parse(w.iter().map(String::as_str), &schema, None);
        let stats = WorkloadStatistics::build(&log, &schema, &cfg);
        (rel, stats)
    }

    /// FNV-1a of a rendering, to pin long outputs compactly.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn single_valued_numeric_level_prices_as_a_leaf() {
        // Expected values were recorded from the implementation that
        // scanned every node's value window before pricing a level and
        // planned a numeric candidate without spread anywhere in the
        // level as a leaf up front. With price, the single-valued
        // bedroomcount loses level 2 and then wins level 3 as a leaf
        // level (nothing attached); without price it wins level 2.
        // Leaf candidates are not counted in `categorize.cost_evals`.
        let cases = [
            (
                true,
                "level 1 (neighborhood): partitioned 1 nodes into 4 categories\n\
                 \x20   neighborhood     cost      181.3 <- chosen\n\
                 \x20   bedroomcount     cost      207.5\n\
                 \x20   price            cost      216.8\n\
                 level 2 (price): partitioned 4 nodes into 12 categories\n\
                 \x20   bedroomcount     cost       60.0\n\
                 \x20   price            cost       54.9 <- chosen\n\
                 level 3 (bedroomcount): partitioned 8 nodes into 0 categories\n\
                 \x20   bedroomcount     cost      158.4 <- chosen\n",
                (7, 17, 0x4753_5e0d_a296_deba_u64, 0xb993_39b1_0cbb_1dd6_u64),
            ),
            (
                false,
                "level 1 (neighborhood): partitioned 1 nodes into 4 categories\n\
                 \x20   neighborhood     cost      152.0 <- chosen\n\
                 \x20   bedroomcount     cost      191.2\n\
                 level 2 (bedroomcount): partitioned 4 nodes into 0 categories\n\
                 \x20   bedroomcount     cost       60.0 <- chosen\n",
                (2, 5, 0x5424_4cb3_4056_69ae, 0x4157_4323_8a2f_4a9b),
            ),
        ];
        for (with_price, want_trace, (want_evals, want_nodes, want_render, want_costs)) in cases {
            let (rel, st) = single_valued_homes(with_price);
            let result = ResultSet::whole(rel.clone());
            let config = CategorizeConfig::default()
                .with_max_leaf_tuples(10)
                .with_attr_threshold(0.05)
                .with_bucket_count(BucketCount::Fixed(3));
            for threads in [1, 4] {
                let rec = qcat_obs::Recorder::metrics_only();
                let cat = Categorizer::new(&st, config.with_threads(threads));
                let (tree, trace) =
                    qcat_obs::with_recorder(&rec, || cat.categorize_traced(&result, None));
                tree.check_invariants().unwrap();
                let evals = rec
                    .snapshot()
                    .counters
                    .get("categorize.cost_evals")
                    .copied()
                    .unwrap_or(0);
                let case = format!("with_price={with_price} threads={threads}");
                assert_eq!(trace.render(rel.schema()), want_trace, "{case}");
                assert_eq!(evals, want_evals, "{case}: cost_evals");
                assert_eq!(tree.node_count(), want_nodes, "{case}");
                let render = crate::render::render_tree(&tree, usize::MAX);
                assert_eq!(fnv(&render), want_render, "{case}: rendered tree\n{render}");
                // The Debug form prints every candidate cost exactly.
                assert_eq!(fnv(&format!("{trace:?}")), want_costs, "{case}: {trace:?}");
            }
        }
    }

    #[test]
    fn root_partitions_the_query_window() {
        // Only price is ever queried, so it is the one candidate. The
        // query's range is wider than the result's prices: the root's
        // buckets span the query's window (paper Section 5.1.3), while
        // without the query they span the data.
        let rel = homes(400);
        let w: Vec<String> = (0..50)
            .map(|i| {
                let lo = 150_000 + (i % 10) * 20_000;
                format!(
                    "SELECT * FROM homes WHERE price BETWEEN {lo} AND {}",
                    lo + 40_000
                )
            })
            .collect();
        let st = stats(&rel, &w);
        let q = parse_and_normalize(
            "SELECT * FROM homes WHERE price BETWEEN 150000 AND 350000",
            rel.schema(),
        )
        .unwrap();
        let result = execute(&rel, &q, &ExecOptions::default()).unwrap();
        let config = CategorizeConfig::default()
            .with_attr_threshold(0.1)
            .with_max_levels(1);
        let span = |tree: &CategoryTree| {
            let ranges: Vec<NumericRange> = tree
                .node(NodeId::ROOT)
                .children
                .iter()
                .map(|&c| match tree.node(c).label.as_ref().map(|l| &l.kind) {
                    Some(crate::label::LabelKind::Range(r)) => *r,
                    other => panic!("non-range label {other:?}"),
                })
                .collect();
            (ranges.first().unwrap().lo, ranges.last().unwrap().hi)
        };
        let cat = Categorizer::new(&st, config);
        let tree = cat.categorize(&result, Some(&q));
        assert_eq!(tree.level_attr(1), Some(AttrId(1)));
        assert_eq!(span(&tree), (150_000.0, 350_000.0));
        let data = rel
            .column(AttrId(1))
            .numeric_min_max(result.rows())
            .unwrap();
        let tree = cat.categorize(&result, None);
        assert_eq!(span(&tree), data);
        assert!(data.0 > 150_000.0 && data.1 < 350_000.0);
    }
}

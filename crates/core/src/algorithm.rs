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
//! every thread count. Shared work is cached per categorization: one
//! occ-sorted [`CategoricalPlan`] per categorical attribute (the sort
//! does not depend on the level) and one [`ProbCache`] memoizing `Pw`
//! per attribute and `P(C)` per numeric interval.

use crate::config::CategorizeConfig;
use crate::cost::one_level_cost_all;
use crate::label::{CategoricalCol, CategoryLabel};
use crate::partition::categorical::{CategoricalPlan, ValueOrder};
use crate::partition::numeric::{value_window, NumericPlan};
use crate::partition::{Part, Partitioning};
use crate::probability::ProbCache;
use crate::tree::{CategoryTree, DegradeReason, NodeId};
use qcat_data::{AttrId, AttrType, Relation};
use qcat_exec::ResultSet;
use qcat_pool::ThreadPool;
use qcat_sql::{NormalizedQuery, NumericRange};
use qcat_workload::WorkloadStatistics;
use std::collections::HashMap;

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

/// How one candidate attribute partitions this level — the per-level
/// plan a pool work item reads. Numeric pricing uses the node's own
/// window, so only the plan (splitpoints ranked over the level's union
/// window) is shared.
enum CandPlan<'a> {
    /// Categorical: the per-categorize cached plan plus the column
    /// proof and `Pw`.
    Cat {
        col: CategoricalCol<'a>,
        plan: &'a CategoricalPlan,
        pw: f64,
    },
    /// Numeric with a usable value window.
    Num { plan: NumericPlan, pw: f64 },
    /// No partitioning possible (numeric attribute with no value
    /// spread anywhere in the level): every node stays a leaf and is
    /// priced as the user scanning its tuples.
    Leaf,
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
        // Occ-sorted categorical plans are level-independent: build
        // each at most once per categorization.
        let mut plan_cache: HashMap<AttrId, CategoricalPlan> = HashMap::new();
        let mut tree = CategoryTree::new(relation.clone(), result.rows().to_vec());
        let mut candidates = self.candidate_attrs();
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
            for &attr in &candidates {
                // Plan building walks whole columns; poll the budget
                // per candidate so an exhausted query degrades here
                // instead of finishing the level's plans first.
                if let Some(g) = &gas {
                    if let Err(e) = g.check() {
                        degraded = Some(e.into());
                        break;
                    }
                }
                if relation.schema().type_of(attr) == AttrType::Categorical
                    && !plan_cache.contains_key(&attr)
                {
                    if let Some(col) = CategoricalCol::of(&relation, attr) {
                        plan_cache.insert(
                            attr,
                            CategoricalPlan::build(&col, self.stats, ValueOrder::ByOccurrence),
                        );
                    }
                }
            }
            if degraded.is_some() {
                break;
            }
            let (plans, priced): (Vec<CandPlan<'_>>, Vec<(f64, usize)>) = {
                let mut phase = qcat_obs::span!("categorize.level.partition");
                let plans_built: Vec<CandPlan<'_>> = candidates
                    .iter()
                    .map(|&attr| match relation.schema().type_of(attr) {
                        AttrType::Categorical => {
                            match (CategoricalCol::of(&relation, attr), plan_cache.get(&attr)) {
                                (Some(col), Some(plan)) => CandPlan::Cat {
                                    col,
                                    plan,
                                    pw: probs.p_showtuples(attr),
                                },
                                _ => CandPlan::Leaf,
                            }
                        }
                        AttrType::Int | AttrType::Float => {
                            match self.level_window(&tree, &relation, &s, attr, query) {
                                Some((wmin, wmax)) => CandPlan::Num {
                                    plan: NumericPlan::build(self.stats, attr, wmin, wmax),
                                    pw: probs.p_showtuples(attr),
                                },
                                None => CandPlan::Leaf,
                            }
                        }
                    })
                    .collect();
                let items: Vec<(usize, NodeId)> = (0..plans_built.len())
                    .flat_map(|ci| s.iter().map(move |&id| (ci, id)))
                    .collect();
                let priced_plans = plans_built
                    .iter()
                    .filter(|p| !matches!(p, CandPlan::Leaf))
                    .count() as u64;
                let work = level_tuples * priced_plans;
                let priced = match pool.try_map_work(&items, work, |_, &(ci, id)| {
                    let mut item_span =
                        qcat_obs::span!("categorize.level.partition.item", cand = ci);
                    let priced = self.price_item(&tree, &relation, &plans_built[ci], id, query, &probs);
                    if qcat_obs::active() {
                        item_span.set("tuples", tree.node(id).tuple_count());
                        item_span.set("categories", priced.1);
                    }
                    priced
                }) {
                    Ok(p) => p,
                    Err(e) => {
                        degraded = Some(degrade_reason(&e));
                        break;
                    }
                };
                if qcat_obs::active() {
                    phase.set("candidates", candidates.len());
                    phase.set("work", work);
                    phase.set("width", pool.width_for(work).min(items.len()));
                    phase.set(
                        "categories_proposed",
                        priced.iter().map(|&(_, n)| n).sum::<usize>(),
                    );
                }
                (plans_built, priced)
            };

            // Phase 3 — cost estimation: serial reduction of the
            // priced items in (candidate, node) order, reproducing the
            // serial algorithm's float sums exactly.
            let candidate_costs: Vec<(AttrId, f64)> = {
                let _phase = qcat_obs::span!("categorize.level.cost");
                candidates
                    .iter()
                    .enumerate()
                    .map(|(ci, &attr)| {
                        if !matches!(plans[ci], CandPlan::Leaf) {
                            qcat_obs::counter("categorize.cost_evals", s.len() as i64);
                        }
                        let cost: f64 = priced[ci * s.len()..(ci + 1) * s.len()]
                            .iter()
                            .map(|&(term, _)| term)
                            .sum();
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
                    CandPlan::Num { plan, pw } => pool
                        .try_map_work(&s, level_tuples, |_, &id| {
                            let _item_span = qcat_obs::span!(
                                "categorize.level.select.materialize.item",
                                tuples = tree.node(id).tuple_count(),
                            );
                            let node = tree.node(id);
                            let node_window = if id == NodeId::ROOT {
                                value_window(&relation, attr, &node.tset, query)
                            } else {
                                None
                            };
                            plan.split_in_window(
                                &relation,
                                &node.tset,
                                &self.config,
                                &probs,
                                *pw,
                                node_window,
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
            candidates.retain(|&a| a != attr);
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
        query: Option<&NormalizedQuery>,
        probs: &ProbCache<'_>,
    ) -> (f64, usize) {
        let node = tree.node(id);
        let scan = node.tuple_count() as f64; // 0/1-way split: user scans
        match plan {
            CandPlan::Leaf => (node.p_explore * scan, 0),
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
                    one_level_cost_all(
                        node.tuple_count(),
                        *pw,
                        self.config.label_cost,
                        &children,
                    )
                };
                (node.p_explore * price, children.len())
            }
            CandPlan::Num { plan, pw } => {
                let node_window = if id == NodeId::ROOT {
                    value_window(relation, plan.attr(), &node.tset, query)
                } else {
                    None
                };
                match plan.priced_split_in_window(
                    relation,
                    &node.tset,
                    &self.config,
                    probs,
                    *pw,
                    node_window,
                ) {
                    Some(children) if children.len() >= 2 => (
                        node.p_explore
                            * one_level_cost_all(
                                node.tuple_count(),
                                *pw,
                                self.config.label_cost,
                                &children,
                            ),
                        children.len(),
                    ),
                    Some(children) => (node.p_explore * scan, children.len()),
                    // No usable splitpoint: the winner would fall back
                    // to a single covering bucket (one category).
                    None => (node.p_explore * scan, 1),
                }
            }
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
            AttrType::Int | AttrType::Float => self
                .level_window(tree, relation, s, attr, query)
                .map(|(wmin, wmax)| {
                    let pw = probs.p_showtuples(attr);
                    let plan = NumericPlan::build(self.stats, attr, wmin, wmax);
                    s.iter()
                        .map(|&id| {
                            let node = tree.node(id);
                            let node_window = if id == NodeId::ROOT {
                                value_window(relation, attr, &node.tset, query)
                            } else {
                                None
                            };
                            let partitioning = plan
                                .split_in_window(
                                    relation,
                                    &node.tset,
                                    &self.config,
                                    probs,
                                    pw,
                                    node_window,
                                )
                                .unwrap_or_else(|| {
                                    single_bucket(relation, attr, &node.tset, probs)
                                });
                            (id, partitioning)
                        })
                        .collect()
                }),
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

    /// The candidate-splitpoint window for a whole level: the union of
    /// the nodes' data windows, widened by the user query's range on
    /// the attribute when the root is among the nodes.
    fn level_window(
        &self,
        tree: &CategoryTree,
        relation: &Relation,
        s: &[NodeId],
        attr: AttrId,
        query: Option<&NormalizedQuery>,
    ) -> Option<(f64, f64)> {
        let mut acc: Option<(f64, f64)> = None;
        for &id in s {
            let q = if id == NodeId::ROOT { query } else { None };
            if let Some((lo, hi)) = value_window(relation, attr, &tree.node(id).tset, q) {
                acc = Some(match acc {
                    None => (lo, hi),
                    Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                });
            }
        }
        acc
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
    use qcat_exec::execute_normalized;
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
        let result = execute_normalized(&rel, &q).unwrap();
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
        let result = execute_normalized(&rel, &q).unwrap();
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
            let tree =
                Categorizer::new(&st, base.with_threads(threads)).categorize(&result, None);
            assert_eq!(tree.node_count(), reference.node_count(), "threads={threads}");
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
            assert_eq!(tree.degraded(), Some(DegradeReason::Nodes), "threads={threads}");
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
                    let (cost, _) = cat.price_item(
                        &base,
                        &rel,
                        &CandPlan::Cat {
                            col,
                            plan: &plan,
                            pw: probs.p_showtuples(attr),
                        },
                        NodeId::ROOT,
                        None,
                        &probs,
                    );
                    cost
                }
                AttrType::Int | AttrType::Float => {
                    let (wmin, wmax) = cat.level_window(&base, &rel, &s, attr, None).unwrap();
                    let (cost, _) = cat.price_item(
                        &base,
                        &rel,
                        &CandPlan::Num {
                            plan: NumericPlan::build(&st, attr, wmin, wmax),
                            pw: probs.p_showtuples(attr),
                        },
                        NodeId::ROOT,
                        None,
                        &probs,
                    );
                    cost
                }
            };
            assert_eq!(
                plan.to_bits(),
                reference.to_bits(),
                "attr {attr:?}: fused {plan} vs reference {reference}"
            );
        }
    }
}

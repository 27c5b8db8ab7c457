//! Category labels (paper Section 3.1).
//!
//! A label solely and unambiguously describes which tuples of the
//! parent's tuple-set fall under a category:
//!
//! - categorical attribute `A`: `A ∈ B` with `B ⊂ dom_R(A)`, stored as
//!   dictionary codes of the base relation *together with* the interned
//!   value strings — the label carries its categorical-column proof, so
//!   rendering, overlap tests, and workload lookups never have to
//!   re-prove that the column is categorical (and can never panic on a
//!   non-categorical one);
//! - numeric attribute `A`: an interval, normally `a1 ≤ A < a2`
//!   ([`qcat_sql::NumericRange::half_open`]), closed on the right for
//!   the last bucket of a partitioning.
//!
//! Labels over categorical columns are built through
//! [`CategoricalCol`], the witness that an attribute really is backed
//! by a dictionary; obtaining one is the single fallible step, after
//! which every label operation is total.

use qcat_data::{AttrId, Chunk, Column, Dictionary, Relation};
use qcat_sql::{AttrCondition, NormalizedQuery, NumericRange};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Proof that `attr` is a categorical column of a specific relation:
/// holds the dictionary and the code column. Constructing one is the
/// only place where "is this attribute categorical?" can fail; labels
/// built through it carry their value strings and are total
/// afterwards.
#[derive(Debug, Clone, Copy)]
pub struct CategoricalCol<'a> {
    attr: AttrId,
    dict: &'a Dictionary,
    column: Column<'a>,
}

impl<'a> CategoricalCol<'a> {
    /// Witness that `attr` is categorical in `relation`, or `None`.
    pub fn of(relation: &'a Relation, attr: AttrId) -> Option<Self> {
        let column = relation.column(attr);
        let dict = column.dictionary()?;
        Some(CategoricalCol { attr, dict, column })
    }

    /// The proven attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &'a Dictionary {
        self.dict
    }

    /// Split `tset` into per-segment runs over plain code slices:
    /// `(codes, start, run)`, where row `r` of `run` holds code
    /// `codes[r - start]`. A one-segment relation yields one run.
    pub fn code_runs<'r>(
        &self,
        tset: &'r [u32],
    ) -> impl Iterator<Item = (&'a [u32], u32, &'r [u32])> + 'r
    where
        'a: 'r,
    {
        self.column
            .runs(tset)
            .filter_map(|(chunk, start, run)| match chunk {
                Chunk::Codes(codes) => Some((codes.as_slice(), start, run)),
                _ => None,
            })
    }

    /// Number of distinct dictionary values.
    pub fn n_values(&self) -> usize {
        self.dict.len()
    }

    /// Single-value label for a dictionary code (`None` when the code
    /// is outside the dictionary).
    pub fn label_of_code(&self, code: u32) -> Option<CategoryLabel> {
        let value = self.dict.value(code)?.clone();
        Some(CategoryLabel::single_value(self.attr, code, value))
    }

    /// Multi-value label for a set of dictionary codes (`None` when
    /// any code is outside the dictionary).
    pub fn label_of_codes(&self, codes: impl IntoIterator<Item = u32>) -> Option<CategoryLabel> {
        let entries = codes
            .into_iter()
            .map(|c| Some((c, self.dict.value(c)?.clone())))
            .collect::<Option<Vec<_>>>()?;
        Some(CategoryLabel::value_set(self.attr, entries))
    }

    /// Single-value label for a value string (`None` when the value is
    /// not in the dictionary). Test- and tooling-friendly constructor.
    pub fn label_of_value(&self, value: &str) -> Option<CategoryLabel> {
        self.label_of_code(self.dict.lookup(value)?)
    }

    /// Multi-value label for value strings (`None` when any is
    /// unknown).
    pub fn label_of_values<'v>(
        &self,
        values: impl IntoIterator<Item = &'v str>,
    ) -> Option<CategoryLabel> {
        let codes = values
            .into_iter()
            .map(|v| self.dict.lookup(v))
            .collect::<Option<Vec<_>>>()?;
        self.label_of_codes(codes)
    }
}

/// The predicate content of a label.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelKind {
    /// `A ∈ B`: dictionary codes of the label's relation, each paired
    /// with its interned value string. Iteration order is code order.
    In(BTreeMap<u32, Arc<str>>),
    /// Numeric interval.
    Range(NumericRange),
}

/// A category label: an attribute plus its predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryLabel {
    /// The categorizing attribute.
    pub attr: AttrId,
    /// The predicate.
    pub kind: LabelKind,
}

impl CategoryLabel {
    /// Single-value categorical label `A = v` (the only categorical
    /// shape the cost-based partitioner produces, Section 5.1.2). The
    /// `(code, value)` pair normally comes from a [`CategoricalCol`].
    pub fn single_value(attr: AttrId, code: u32, value: Arc<str>) -> Self {
        CategoryLabel {
            attr,
            kind: LabelKind::In(BTreeMap::from([(code, value)])),
        }
    }

    /// Multi-value categorical label `A ∈ B` from `(code, value)`
    /// pairs (normally via [`CategoricalCol::label_of_codes`]).
    pub fn value_set(attr: AttrId, entries: impl IntoIterator<Item = (u32, Arc<str>)>) -> Self {
        CategoryLabel {
            attr,
            kind: LabelKind::In(entries.into_iter().collect()),
        }
    }

    /// Numeric interval label.
    pub fn range(attr: AttrId, range: NumericRange) -> Self {
        CategoryLabel {
            attr,
            kind: LabelKind::Range(range),
        }
    }

    /// Does `row` of `relation` satisfy the label predicate?
    pub fn matches_row(&self, relation: &Relation, row: u32) -> bool {
        let column = relation.column(self.attr);
        match &self.kind {
            LabelKind::In(members) => column
                .code_at(row as usize)
                .is_some_and(|c| members.contains_key(&c)),
            LabelKind::Range(r) => column
                .numeric_at(row as usize)
                .is_some_and(|v| r.contains(v)),
        }
    }

    /// The paper's overlap test (Section 4.2): does a workload query's
    /// selection condition on this attribute overlap the label?
    ///
    /// - categorical: the IN-sets are not disjoint (compared on the
    ///   value strings the label carries);
    /// - numeric: the intervals overlap.
    ///
    /// Conditions of the wrong type never overlap (they cannot arise
    /// from a well-typed workload).
    pub fn overlaps_condition(&self, condition: &AttrCondition) -> bool {
        match (&self.kind, condition) {
            (LabelKind::In(members), AttrCondition::InStr(values)) => values
                .iter()
                .any(|v| members.values().any(|m| m.as_ref() == v.as_str())),
            (LabelKind::Range(r), AttrCondition::Range(q)) => r.overlaps(q),
            (LabelKind::Range(r), AttrCondition::InNum(values)) => {
                values.iter().any(|&v| r.contains(v))
            }
            _ => false,
        }
    }

    /// Does a whole normalized query overlap this label? True when the
    /// query places no condition on the label's attribute (the user
    /// did not rule the category out) or when its condition overlaps.
    ///
    /// This is how the synthetic explorations of Section 6.2 decide
    /// which categories to drill into.
    pub fn query_overlaps(&self, query: &NormalizedQuery) -> bool {
        match query.condition(self.attr) {
            None => true,
            Some(cond) => self.overlaps_condition(cond),
        }
    }

    /// Express this label in workload terms for the correlation index
    /// (the value strings are carried by the label itself).
    pub fn to_predicate(&self) -> qcat_workload::LabelPredicate {
        match &self.kind {
            LabelKind::In(members) => qcat_workload::LabelPredicate::InValues(
                self.attr,
                members.values().map(|v| v.as_ref().to_string()).collect(),
            ),
            LabelKind::Range(r) => qcat_workload::LabelPredicate::Range(self.attr, *r),
        }
    }

    /// The carried value strings of a categorical label, in code
    /// order; empty for numeric labels. This is what workload
    /// occurrence lookups consume.
    pub fn in_values(&self) -> impl Iterator<Item = &str> {
        let members = match &self.kind {
            LabelKind::In(m) => Some(m),
            LabelKind::Range(_) => None,
        };
        members
            .into_iter()
            .flat_map(|m| m.values())
            .map(|v| v.as_ref())
    }

    /// Render the label the way Figure 1 does: `Neighborhood:
    /// Redmond, Bellevue` or `Price: 200000 - 225000`. The relation is
    /// consulted only for the attribute's display name.
    pub fn render(&self, relation: &Relation) -> String {
        let name = relation.schema().name_of(self.attr);
        let mut out = String::new();
        match &self.kind {
            LabelKind::In(members) => {
                let _ = write!(out, "{name}: ");
                for (i, v) in members.values().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(v.as_ref());
                }
            }
            LabelKind::Range(r) => {
                let _ = write!(out, "{name}: {}", render_range(r));
            }
        }
        out
    }
}

/// Human-readable interval rendering.
fn render_range(r: &NumericRange) -> String {
    let fmt = |v: f64| {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    };
    match (r.lo.is_finite(), r.hi.is_finite()) {
        (true, true) => format!("{} - {}", fmt(r.lo), fmt(r.hi)),
        (true, false) => format!("\u{2265} {}", fmt(r.lo)),
        (false, true) => {
            if r.hi_inclusive {
                format!("\u{2264} {}", fmt(r.hi))
            } else {
                format!("< {}", fmt(r.hi))
            }
        }
        (false, false) => "all".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_data::{AttrType, Field, RelationBuilder, Schema};
    use qcat_sql::parse_and_normalize;

    fn homes() -> Relation {
        let schema = Schema::new(vec![
            Field::new("neighborhood", AttrType::Categorical),
            Field::new("price", AttrType::Float),
        ])
        .unwrap();
        let mut b = RelationBuilder::new(schema);
        for (n, p) in [
            ("Redmond", 210_000.0),
            ("Bellevue", 260_000.0),
            ("Seattle", 305_000.0),
        ] {
            b.push_row(&[n.into(), p.into()]).unwrap();
        }
        b.finish().unwrap()
    }

    fn hood(rel: &Relation, v: &str) -> CategoryLabel {
        CategoricalCol::of(rel, AttrId(0))
            .unwrap()
            .label_of_value(v)
            .unwrap()
    }

    fn hoods(rel: &Relation, vs: [&str; 2]) -> CategoryLabel {
        CategoricalCol::of(rel, AttrId(0))
            .unwrap()
            .label_of_values(vs)
            .unwrap()
    }

    #[test]
    fn matches_rows_categorical() {
        let rel = homes();
        let label = hood(&rel, "Redmond");
        assert!(label.matches_row(&rel, 0));
        assert!(!label.matches_row(&rel, 1));
        let both = hoods(&rel, ["Redmond", "Bellevue"]);
        assert!(both.matches_row(&rel, 0));
        assert!(both.matches_row(&rel, 1));
        assert!(!both.matches_row(&rel, 2));
    }

    #[test]
    fn matches_rows_numeric_half_open() {
        let rel = homes();
        let label = CategoryLabel::range(AttrId(1), NumericRange::half_open(200_000.0, 260_000.0));
        assert!(label.matches_row(&rel, 0));
        assert!(!label.matches_row(&rel, 1)); // 260000 excluded
        assert!(!label.matches_row(&rel, 2));
    }

    #[test]
    fn overlap_with_in_condition() {
        let rel = homes();
        let schema = rel.schema().clone();
        let q = parse_and_normalize(
            "SELECT * FROM t WHERE neighborhood IN ('Redmond','Kirkland')",
            &schema,
        )
        .unwrap();
        let cond = q.condition(AttrId(0)).unwrap();
        assert!(hood(&rel, "Redmond").overlaps_condition(cond));
        assert!(!hood(&rel, "Seattle").overlaps_condition(cond));
    }

    #[test]
    fn overlap_with_range_condition_matches_paper_semantics() {
        let rel = homes();
        let schema = rel.schema().clone();
        let q = parse_and_normalize(
            "SELECT * FROM t WHERE price BETWEEN 100000 AND 200000",
            &schema,
        )
        .unwrap();
        let cond = q.condition(AttrId(1)).unwrap();
        // Label [200000, 225000): the query's closed upper end touches it.
        let touching =
            CategoryLabel::range(AttrId(1), NumericRange::half_open(200_000.0, 225_000.0));
        assert!(touching.overlaps_condition(cond));
        // Label [225000, 250000): disjoint.
        let disjoint =
            CategoryLabel::range(AttrId(1), NumericRange::half_open(225_000.0, 250_000.0));
        assert!(!disjoint.overlaps_condition(cond));
    }

    #[test]
    fn query_overlap_defaults_to_true_without_condition() {
        let rel = homes();
        let schema = rel.schema().clone();
        let q = parse_and_normalize("SELECT * FROM t WHERE price < 250000", &schema).unwrap();
        assert!(hood(&rel, "Seattle").query_overlaps(&q));
        let price_label =
            CategoryLabel::range(AttrId(1), NumericRange::half_open(300_000.0, 400_000.0));
        assert!(!price_label.query_overlaps(&q));
    }

    #[test]
    fn mismatched_condition_types_never_overlap() {
        let label = CategoryLabel::range(AttrId(1), NumericRange::closed(0.0, 1.0));
        let cond = AttrCondition::InStr(["x".to_string()].into());
        assert!(!label.overlaps_condition(&cond));
    }

    #[test]
    fn rendering_matches_figure1_style() {
        let rel = homes();
        let label = hoods(&rel, ["Redmond", "Bellevue"]);
        // BTreeMap orders by code: Redmond interned first.
        assert_eq!(label.render(&rel), "neighborhood: Redmond, Bellevue");
        let price = CategoryLabel::range(AttrId(1), NumericRange::half_open(200_000.0, 225_000.0));
        assert_eq!(price.render(&rel), "price: 200000 - 225000");
        let open = CategoryLabel::range(
            AttrId(1),
            NumericRange {
                lo: f64::NEG_INFINITY,
                lo_inclusive: false,
                hi: 1_000_000.0,
                hi_inclusive: false,
            },
        );
        assert_eq!(open.render(&rel), "price: < 1000000");
    }

    #[test]
    fn numeric_in_condition_overlap() {
        let label = CategoryLabel::range(AttrId(1), NumericRange::half_open(3.0, 5.0));
        assert!(label.overlaps_condition(&AttrCondition::InNum(vec![4.0])));
        assert!(!label.overlaps_condition(&AttrCondition::InNum(vec![5.0])));
    }

    #[test]
    fn categorical_col_is_the_only_fallible_step() {
        let rel = homes();
        // price is numeric: no proof, hence no categorical label.
        assert!(CategoricalCol::of(&rel, AttrId(1)).is_none());
        let col = CategoricalCol::of(&rel, AttrId(0)).unwrap();
        assert_eq!(col.attr(), AttrId(0));
        assert_eq!(col.n_values(), 3);
        assert!(col.label_of_value("Nowhere").is_none());
        assert!(col.label_of_code(99).is_none());
        let label = col.label_of_code(0).unwrap();
        assert_eq!(label.in_values().collect::<Vec<_>>(), vec!["Redmond"]);
    }
}

//! Aggregate functions and their incremental accumulators.
//!
//! The paper's `aggregate` and `groupby` operators carry a list of
//! [`AggExpr`]s. Each evaluates its argument expression per input row and
//! folds the value into an [`Accumulator`]. Empty-input behaviour is the
//! crux of the paper's *emptyOnEmpty* analysis (§4.1): a scalar aggregate
//! over the empty relation is **not** empty — `count` returns 0 and the
//! others return NULL — which is exactly why selections can only be pushed
//! out of a per-group query when `PGQ(∅) = ∅`.

use crate::expr::Expr;
use std::collections::BTreeSet;
use std::fmt;
use xmlpub_common::{DataType, Error, Result, Schema, Tuple, Value};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` — counts rows, never NULL.
    CountStar,
    /// `count(e)` — counts non-NULL values of `e`.
    Count,
    /// `count(distinct e)` — counts distinct non-NULL values.
    CountDistinct,
    /// `sum(e)`; NULL on empty/all-NULL input.
    Sum,
    /// `avg(e)`; NULL on empty/all-NULL input.
    Avg,
    /// `min(e)`.
    Min,
    /// `max(e)`.
    Max,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count(distinct)",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// An aggregate call: function plus argument (absent for `count(*)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// Which aggregate.
    pub func: AggFunc,
    /// Argument expression; `None` only for `count(*)`.
    pub arg: Option<Expr>,
    /// Output column name.
    pub output_name: String,
}

impl AggExpr {
    /// `count(*) as name`
    pub fn count_star(name: impl Into<String>) -> Self {
        AggExpr { func: AggFunc::CountStar, arg: None, output_name: name.into() }
    }

    /// A unary aggregate call.
    pub fn new(func: AggFunc, arg: Expr, name: impl Into<String>) -> Self {
        debug_assert!(func != AggFunc::CountStar);
        AggExpr { func, arg: Some(arg), output_name: name.into() }
    }

    /// `avg(e) as name`
    pub fn avg(arg: Expr, name: impl Into<String>) -> Self {
        AggExpr::new(AggFunc::Avg, arg, name)
    }

    /// `sum(e) as name`
    pub fn sum(arg: Expr, name: impl Into<String>) -> Self {
        AggExpr::new(AggFunc::Sum, arg, name)
    }

    /// `min(e) as name`
    pub fn min(arg: Expr, name: impl Into<String>) -> Self {
        AggExpr::new(AggFunc::Min, arg, name)
    }

    /// `max(e) as name`
    pub fn max(arg: Expr, name: impl Into<String>) -> Self {
        AggExpr::new(AggFunc::Max, arg, name)
    }

    /// `count(e) as name`
    pub fn count(arg: Expr, name: impl Into<String>) -> Self {
        AggExpr::new(AggFunc::Count, arg, name)
    }

    /// The static output type against an input schema.
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self.func {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => match self.arg.as_ref().map(|a| a.data_type(schema)) {
                Some(DataType::Int) => DataType::Int,
                _ => DataType::Float,
            },
            AggFunc::Min | AggFunc::Max => {
                self.arg.as_ref().map(|a| a.data_type(schema)).unwrap_or(DataType::Null)
            }
        }
    }

    /// The local input columns this aggregate reads.
    pub fn columns(&self) -> xmlpub_common::ColumnSet {
        self.arg.as_ref().map(|a| a.columns()).unwrap_or_default()
    }

    /// Build a fresh accumulator for one group.
    pub fn accumulator(&self) -> Accumulator {
        Accumulator::new(self.func)
    }

    /// Fold one input row into an accumulator.
    pub fn update(&self, acc: &mut Accumulator, row: &Tuple, outer: &[Tuple]) -> Result<()> {
        let v = match &self.arg {
            Some(e) => e.eval(row, outer)?,
            None => Value::Int(1), // count(*) ignores the value
        };
        acc.update(v)
    }

    /// Remap input column indices (see [`Expr::remap_columns`]).
    pub fn remap_columns(&self, mapping: &impl Fn(usize) -> Option<usize>) -> Option<AggExpr> {
        let arg = match &self.arg {
            Some(a) => Some(a.remap_columns(mapping)?),
            None => None,
        };
        Some(AggExpr { func: self.func, arg, output_name: self.output_name.clone() })
    }

    /// Render against a schema.
    pub fn display(&self, schema: &Schema) -> String {
        match (&self.func, &self.arg) {
            (AggFunc::CountStar, _) => "count(*)".to_string(),
            (AggFunc::CountDistinct, Some(a)) => {
                format!("count(distinct {})", a.display(schema))
            }
            (f, Some(a)) => format!("{}({})", f.name(), a.display(schema)),
            (f, None) => format!("{}(?)", f.name()),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display(&Schema::empty()))
    }
}

/// Incremental state for one aggregate over one group.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// Row counter (`count(*)` / `count(e)`).
    Count { n: i64, count_nulls: bool },
    /// Distinct-value counter.
    CountDistinct { seen: BTreeSet<Value> },
    /// Running sum; `int_overflowed` keeps integer sums integral until a
    /// float shows up.
    Sum { sum_f: f64, sum_i: i64, any: bool, all_int: bool },
    /// Running sum + count for the mean.
    Avg { sum: f64, n: i64 },
    /// Running minimum.
    Min { v: Option<Value> },
    /// Running maximum.
    Max { v: Option<Value> },
}

impl Accumulator {
    /// Fresh state for the given function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::CountStar => Accumulator::Count { n: 0, count_nulls: true },
            AggFunc::Count => Accumulator::Count { n: 0, count_nulls: false },
            AggFunc::CountDistinct => Accumulator::CountDistinct { seen: BTreeSet::new() },
            AggFunc::Sum => Accumulator::Sum { sum_f: 0.0, sum_i: 0, any: false, all_int: true },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Accumulator::Min { v: None },
            AggFunc::Max => Accumulator::Max { v: None },
        }
    }

    /// Fold one value.
    pub fn update(&mut self, v: Value) -> Result<()> {
        match self {
            Accumulator::Count { n, count_nulls } => {
                if *count_nulls || !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::CountDistinct { seen } => {
                if !v.is_null() {
                    seen.insert(v);
                }
            }
            Accumulator::Sum { sum_f, sum_i, any, all_int } => match v {
                Value::Null => {}
                Value::Int(i) => {
                    *any = true;
                    *sum_i = sum_i.wrapping_add(i);
                    *sum_f += i as f64;
                }
                Value::Float(f) => {
                    *any = true;
                    *all_int = false;
                    *sum_f += f;
                }
                other => return Err(Error::exec(format!("sum of non-number {other}"))),
            },
            Accumulator::Avg { sum, n } => match v {
                Value::Null => {}
                other => {
                    let f = other
                        .as_f64()
                        .ok_or_else(|| Error::exec(format!("avg of non-number {other}")))?;
                    *sum += f;
                    *n += 1;
                }
            },
            Accumulator::Min { v: cur } => {
                if !v.is_null() && cur.as_ref().map(|c| v < *c).unwrap_or(true) {
                    *cur = Some(v);
                }
            }
            Accumulator::Max { v: cur } => {
                if !v.is_null() && cur.as_ref().map(|c| v > *c).unwrap_or(true) {
                    *cur = Some(v);
                }
            }
        }
        Ok(())
    }

    /// Produce the aggregate result. Note the empty-input cases: counts
    /// give 0, everything else gives NULL — this is what makes a scalar
    /// aggregate *not* emptyOnEmpty in the paper's analysis.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Count { n, .. } => Value::Int(*n),
            Accumulator::CountDistinct { seen } => Value::Int(seen.len() as i64),
            Accumulator::Sum { sum_f, sum_i, any, all_int } => {
                if !*any {
                    Value::Null
                } else if *all_int {
                    Value::Int(*sum_i)
                } else {
                    Value::Float(*sum_f)
                }
            }
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            Accumulator::Min { v } | Accumulator::Max { v } => v.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_common::row;

    fn run(agg: &AggExpr, rows: &[Tuple]) -> Value {
        let mut acc = agg.accumulator();
        for r in rows {
            agg.update(&mut acc, r, &[]).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_star_vs_count() {
        let rows = vec![row![1], row![Value::Null], row![3]];
        assert_eq!(run(&AggExpr::count_star("c"), &rows), Value::Int(3));
        assert_eq!(run(&AggExpr::count(Expr::col(0), "c"), &rows), Value::Int(2));
    }

    #[test]
    fn count_distinct() {
        let rows = vec![row![1], row![1], row![2], row![Value::Null]];
        let agg = AggExpr::new(AggFunc::CountDistinct, Expr::col(0), "cd");
        assert_eq!(run(&agg, &rows), Value::Int(2));
    }

    #[test]
    fn sum_stays_integer_until_float() {
        let rows = vec![row![1], row![2]];
        assert_eq!(run(&AggExpr::sum(Expr::col(0), "s"), &rows), Value::Int(3));
        let rows = vec![row![1], row![2.5]];
        assert_eq!(run(&AggExpr::sum(Expr::col(0), "s"), &rows), Value::Float(3.5));
    }

    #[test]
    fn avg_ignores_nulls() {
        let rows = vec![row![2], row![Value::Null], row![4]];
        assert_eq!(run(&AggExpr::avg(Expr::col(0), "a"), &rows), Value::Float(3.0));
    }

    #[test]
    fn min_max() {
        let rows = vec![row![3], row![1], row![2], row![Value::Null]];
        assert_eq!(run(&AggExpr::min(Expr::col(0), "m"), &rows), Value::Int(1));
        assert_eq!(run(&AggExpr::max(Expr::col(0), "m"), &rows), Value::Int(3));
        let srows = vec![row!["b"], row!["a"]];
        assert_eq!(run(&AggExpr::min(Expr::col(0), "m"), &srows), Value::str("a"));
    }

    #[test]
    fn empty_input_results() {
        // The paper's §4.1 point: count(∅)=0 (a row!), others NULL.
        assert_eq!(run(&AggExpr::count_star("c"), &[]), Value::Int(0));
        assert_eq!(run(&AggExpr::count(Expr::col(0), "c"), &[]), Value::Int(0));
        assert_eq!(run(&AggExpr::sum(Expr::col(0), "s"), &[]), Value::Null);
        assert_eq!(run(&AggExpr::avg(Expr::col(0), "a"), &[]), Value::Null);
        assert_eq!(run(&AggExpr::min(Expr::col(0), "m"), &[]), Value::Null);
        assert_eq!(
            run(&AggExpr::new(AggFunc::CountDistinct, Expr::col(0), "cd"), &[]),
            Value::Int(0)
        );
    }

    #[test]
    fn type_errors_surface() {
        let rows = [row!["oops"]];
        let mut acc = Accumulator::new(AggFunc::Sum);
        assert!(AggExpr::sum(Expr::col(0), "s").update(&mut acc, &rows[0], &[]).is_err());
        let mut acc = Accumulator::new(AggFunc::Avg);
        assert!(AggExpr::avg(Expr::col(0), "a").update(&mut acc, &rows[0], &[]).is_err());
    }

    #[test]
    fn output_types() {
        let schema = Schema::new(vec![
            xmlpub_common::Field::new("i", DataType::Int),
            xmlpub_common::Field::new("f", DataType::Float),
        ]);
        assert_eq!(AggExpr::count_star("c").data_type(&schema), DataType::Int);
        assert_eq!(AggExpr::sum(Expr::col(0), "s").data_type(&schema), DataType::Int);
        assert_eq!(AggExpr::sum(Expr::col(1), "s").data_type(&schema), DataType::Float);
        assert_eq!(AggExpr::avg(Expr::col(0), "a").data_type(&schema), DataType::Float);
        assert_eq!(AggExpr::min(Expr::col(1), "m").data_type(&schema), DataType::Float);
    }

    #[test]
    fn display_and_columns() {
        let schema = Schema::new(vec![xmlpub_common::Field::new("x", DataType::Int)]);
        let agg = AggExpr::avg(Expr::col(0), "a");
        assert_eq!(agg.display(&schema), "avg(x)");
        assert_eq!(AggExpr::count_star("c").display(&schema), "count(*)");
        assert_eq!(agg.columns().as_slice(), &[0]);
        assert!(AggExpr::count_star("c").columns().is_empty());
        let cd = AggExpr::new(AggFunc::CountDistinct, Expr::col(0), "cd");
        assert_eq!(cd.display(&schema), "count(distinct x)");
    }

    #[test]
    fn remap() {
        let agg = AggExpr::avg(Expr::col(1), "a");
        let r = agg.remap_columns(&|c| Some(c + 3)).unwrap();
        assert_eq!(r.columns().as_slice(), &[4]);
        assert!(agg.remap_columns(&|_| None).is_none());
        let cs = AggExpr::count_star("c");
        assert!(cs.remap_columns(&|_| None).is_some());
    }
}

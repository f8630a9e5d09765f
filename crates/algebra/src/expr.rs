//! Scalar expressions and predicates with SQL three-valued logic.
//!
//! Expressions are built over column *names* and later **bound** against a
//! concrete schema into index-addressed [`BoundExpr`]s, so per-row
//! evaluation does no name lookups — the usual plan/execute split.
//!
//! Two analyses here are load-bearing for the paper's rewriting machinery:
//!
//! * [`Expr::columns`] — the set of columns a predicate references, which
//!   decides *which* pullup/pushdown case applies (condition on key columns
//!   vs. on pivoted output columns, §5.1.1 / §5.2.1);
//! * [`Expr::is_null_intolerant`] — a conservative check that a predicate is
//!   false-or-unknown whenever any referenced column is `⊥`. The combined
//!   SELECT-over-GPIVOT update rules (Fig. 29) are only sound for
//!   null-intolerant conditions, and the engine enforces that.

use crate::error::Result;
use gpivot_storage::{DataType, Row, Schema, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate against an ordering.
    fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with swapped operands (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Three-valued comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic (`NULL` absorbs).
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Three-valued conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Three-valued disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Three-valued negation.
    Not(Box<Expr>),
    /// `expr IS NULL` (two-valued).
    IsNull(Box<Expr>),
    /// `expr IN (v1, ..., vk)` over literals; `NULL` input yields unknown.
    InList(Box<Expr>, Vec<Value>),
    /// Searched CASE: first branch whose condition is true wins;
    /// otherwise the `else` expression.
    Case {
        branches: Vec<(Expr, Expr)>,
        otherwise: Box<Expr>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self IN (values...)`.
    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }

    /// Conjunction of several predicates (`true` literal when empty).
    pub fn conjunction(preds: Vec<Expr>) -> Expr {
        preds
            .into_iter()
            .reduce(Expr::and)
            .unwrap_or(Expr::Lit(Value::Bool(true)))
    }

    /// The top-level conjuncts of this predicate, left to right: the
    /// inverse of [`Expr::conjunction`] on a list that holds no `AND`.
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other.clone()],
        }
    }

    /// Disjunction of several predicates (`false` literal when empty).
    pub fn disjunction(preds: Vec<Expr>) -> Expr {
        preds
            .into_iter()
            .reduce(Expr::or)
            .unwrap_or(Expr::Lit(Value::Bool(false)))
    }

    /// All column names referenced by this expression.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Col(c) => {
                out.insert(c.clone());
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Bin(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::IsNull(a) => a.collect_columns(out),
            Expr::InList(a, _) => a.collect_columns(out),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, v) in branches {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                otherwise.collect_columns(out);
            }
        }
    }

    /// Conservative null-intolerance check: returns `true` only if the
    /// predicate is guaranteed **not** to evaluate to `true` whenever any
    /// referenced column is `⊥`.
    ///
    /// Comparisons, arithmetic, `IN`, conjunction/disjunction of
    /// null-intolerant parts qualify; `IS NULL`, `NOT`, and `CASE` do not
    /// (they can turn unknown into true).
    pub fn is_null_intolerant(&self) -> bool {
        match self {
            // A bare comparison is three-valued: NULL operand → unknown.
            Expr::Cmp(..) | Expr::InList(..) => true,
            Expr::And(a, b) => a.is_null_intolerant() && b.is_null_intolerant(),
            // For OR: with every disjunct null-intolerant, a row whose
            // *every* referenced column is NULL cannot satisfy it; but a row
            // with one non-NULL referenced column might. The paper's usage
            // (condition over pivoted output columns, delete case) needs
            // exactly: "if the row failed before, nulling more columns keeps
            // it failing" — which holds for monotone combinations of
            // null-intolerant atoms. AND/OR are monotone.
            Expr::Or(a, b) => a.is_null_intolerant() && b.is_null_intolerant(),
            Expr::Lit(Value::Bool(false)) => true,
            _ => false,
        }
    }

    /// Rename every column reference using `f` (used when rules move a
    /// predicate across a pivot, e.g. `Price` ⇄ `Sony**TV**Price`).
    pub fn rename_columns<F: Fn(&str) -> String>(&self, f: &F) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(f(c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.rename_columns(f)),
                Box::new(b.rename_columns(f)),
            ),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.rename_columns(f)),
                Box::new(b.rename_columns(f)),
            ),
            Expr::And(a, b) => {
                Expr::And(Box::new(a.rename_columns(f)), Box::new(b.rename_columns(f)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.rename_columns(f)), Box::new(b.rename_columns(f)))
            }
            Expr::Not(a) => Expr::Not(Box::new(a.rename_columns(f))),
            Expr::IsNull(a) => Expr::IsNull(Box::new(a.rename_columns(f))),
            Expr::InList(a, vs) => Expr::InList(Box::new(a.rename_columns(f)), vs.clone()),
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.rename_columns(f), v.rename_columns(f)))
                    .collect(),
                otherwise: Box::new(otherwise.rename_columns(f)),
            },
        }
    }

    /// Result type under `schema` (best effort; `Any` when unknown).
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Col(c) => schema
                .field(c)
                .map(|f| f.data_type)
                .unwrap_or(DataType::Any),
            Expr::Lit(v) => match v {
                Value::Null => DataType::Any,
                Value::Bool(_) => DataType::Bool,
                Value::Int(_) => DataType::Int,
                Value::Float(_) => DataType::Float,
                Value::Str(_) => DataType::Str,
                Value::Date(_) => DataType::Date,
            },
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(_)
            | Expr::IsNull(_)
            | Expr::InList(..) => DataType::Bool,
            Expr::Bin(_, a, b) => match (a.data_type(schema), b.data_type(schema)) {
                (DataType::Int, DataType::Int) => DataType::Int,
                (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => {
                    DataType::Float
                }
                _ => DataType::Any,
            },
            Expr::Case {
                branches,
                otherwise,
            } => branches
                .first()
                .map(|(_, v)| v.data_type(schema))
                .unwrap_or_else(|| otherwise.data_type(schema)),
        }
    }

    /// Bind against a schema, resolving names to indices.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(c) => BoundExpr::Col(schema.index_of(c)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                BoundExpr::Cmp(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::Bin(op, a, b) => {
                BoundExpr::Bin(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::And(a, b) => BoundExpr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Or(a, b) => BoundExpr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(schema)?)),
            Expr::IsNull(a) => BoundExpr::IsNull(Box::new(a.bind(schema)?)),
            Expr::InList(a, vs) => BoundExpr::InList(Box::new(a.bind(schema)?), vs.clone()),
            Expr::Case {
                branches,
                otherwise,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((c.bind(schema)?, v.bind(schema)?)))
                    .collect::<Result<Vec<_>>>()?,
                otherwise: Box::new(otherwise.bind(schema)?),
            },
        })
    }

    /// Evaluate directly over a row under `schema` (test/one-shot path).
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<Value> {
        Ok(self.bind(schema)?.eval(row))
    }

    /// Evaluate as a predicate: `Some(true/false)` or `None` for unknown.
    pub fn eval_predicate(&self, schema: &Schema, row: &Row) -> Result<Option<bool>> {
        Ok(self.bind(schema)?.eval_predicate(row))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::IsNull(a) => write!(f, "({a} IS NULL)"),
            Expr::InList(a, vs) => {
                write!(f, "({a} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                write!(f, " ELSE {otherwise} END")
            }
        }
    }
}

/// An expression compiled against a schema: columns are positional.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    Bin(BinOp, Box<BoundExpr>, Box<BoundExpr>),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    InList(Box<BoundExpr>, Vec<Value>),
    Case {
        branches: Vec<(BoundExpr, BoundExpr)>,
        otherwise: Box<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate over a row. Predicate sub-results use three-valued logic and
    /// surface as `Value::Null` when unknown.
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            BoundExpr::Col(i) => row[*i].clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Cmp(op, a, b) => match a.eval(row).compare(&b.eval(row)) {
                Some(ord) => Value::Bool(op.holds(ord)),
                None => Value::Null,
            },
            BoundExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(row), b.eval(row));
                if x.is_null() || y.is_null() {
                    return Value::Null;
                }
                match op {
                    BinOp::Add => x.numeric_add(&y),
                    BinOp::Sub => x.numeric_sub(&y),
                    BinOp::Mul => match (x, y) {
                        (Value::Int(a), Value::Int(b)) => Value::Int(a * b),
                        (a, b) => match (a.as_f64(), b.as_f64()) {
                            (Some(p), Some(q)) => Value::Float(p * q),
                            _ => Value::Null,
                        },
                    },
                    BinOp::Div => match (x.as_f64(), y.as_f64()) {
                        (Some(_), Some(0.0)) => Value::Null,
                        (Some(p), Some(q)) => Value::Float(p / q),
                        _ => Value::Null,
                    },
                }
            }
            BoundExpr::And(a, b) => match (to_tvl(a.eval(row)), to_tvl(b.eval(row))) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            },
            BoundExpr::Or(a, b) => match (to_tvl(a.eval(row)), to_tvl(b.eval(row))) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            BoundExpr::Not(a) => match to_tvl(a.eval(row)) {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            BoundExpr::IsNull(a) => Value::Bool(a.eval(row).is_null()),
            BoundExpr::InList(a, vs) => {
                let v = a.eval(row);
                if v.is_null() {
                    Value::Null
                } else {
                    Value::Bool(vs.contains(&v))
                }
            }
            BoundExpr::Case {
                branches,
                otherwise,
            } => {
                for (c, out) in branches {
                    if to_tvl(c.eval(row)) == Some(true) {
                        return out.eval(row);
                    }
                }
                otherwise.eval(row)
            }
        }
    }

    /// Evaluate as a predicate: `Some(bool)` or `None` (unknown).
    pub fn eval_predicate(&self, row: &Row) -> Option<bool> {
        to_tvl(self.eval(row))
    }

    /// Predicate that holds: unknown counts as false (SQL WHERE semantics).
    pub fn holds(&self, row: &Row) -> bool {
        self.eval_predicate(row) == Some(true)
    }
}

fn to_tvl(v: Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(b),
        Value::Null => None,
        // Non-boolean in a predicate position: treat as unknown rather than
        // panic; planners validate types ahead of time.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::row;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("s", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn comparison_three_valued() {
        let s = schema();
        let p = Expr::col("a").gt(Expr::lit(5));
        assert_eq!(p.eval_predicate(&s, &row![7, 0, "x"]).unwrap(), Some(true));
        assert_eq!(p.eval_predicate(&s, &row![3, 0, "x"]).unwrap(), Some(false));
        let null_row = Row::new(vec![Value::Null, Value::Int(0), Value::str("x")]);
        assert_eq!(p.eval_predicate(&s, &null_row).unwrap(), None);
    }

    #[test]
    fn and_or_kleene() {
        let s = schema();
        let unknown = Expr::col("a").gt(Expr::lit(5)); // a is NULL below
        let row = Row::new(vec![Value::Null, Value::Int(0), Value::str("x")]);
        // unknown AND false = false
        let p = unknown.clone().and(Expr::lit(false).eq(Expr::lit(true)));
        assert_eq!(p.eval_predicate(&s, &row).unwrap(), Some(false));
        // unknown OR true = true
        let p = unknown.clone().or(Expr::lit(1).eq(Expr::lit(1)));
        assert_eq!(p.eval_predicate(&s, &row).unwrap(), Some(true));
        // unknown OR false = unknown
        let p = unknown.or(Expr::lit(1).eq(Expr::lit(2)));
        assert_eq!(p.eval_predicate(&s, &row).unwrap(), None);
    }

    #[test]
    fn null_intolerance_analysis() {
        assert!(Expr::col("x").gt(Expr::lit(5)).is_null_intolerant());
        assert!(Expr::col("x")
            .gt(Expr::lit(5))
            .and(Expr::col("y").eq(Expr::lit(1)))
            .is_null_intolerant());
        assert!(Expr::col("x")
            .gt(Expr::lit(5))
            .or(Expr::col("y").eq(Expr::lit(1)))
            .is_null_intolerant());
        assert!(!Expr::col("x").is_null().is_null_intolerant());
        assert!(!Expr::col("x").gt(Expr::lit(5)).not().is_null_intolerant());
    }

    #[test]
    fn arithmetic_null_absorbs_and_div_zero() {
        let s = schema();
        let e = Expr::col("a").add(Expr::col("b"));
        assert_eq!(e.eval(&s, &row![2, 3, "x"]).unwrap(), Value::Int(5));
        let null_row = Row::new(vec![Value::Null, Value::Int(3), Value::str("x")]);
        assert!(e.eval(&s, &null_row).unwrap().is_null());
        let div = Expr::Bin(BinOp::Div, Box::new(Expr::col("a")), Box::new(Expr::lit(0)));
        assert!(div.eval(&s, &row![2, 3, "x"]).unwrap().is_null());
    }

    #[test]
    fn case_expression() {
        let s = schema();
        let e = Expr::Case {
            branches: vec![(Expr::col("a").gt(Expr::lit(0)), Expr::lit("pos"))],
            otherwise: Box::new(Expr::lit("neg")),
        };
        assert_eq!(e.eval(&s, &row![1, 0, "x"]).unwrap(), Value::str("pos"));
        assert_eq!(e.eval(&s, &row![-1, 0, "x"]).unwrap(), Value::str("neg"));
        // unknown condition falls through to ELSE
        let null_row = Row::new(vec![Value::Null, Value::Int(0), Value::str("x")]);
        assert_eq!(e.eval(&s, &null_row).unwrap(), Value::str("neg"));
    }

    #[test]
    fn in_list() {
        let s = schema();
        let e = Expr::col("s").in_list(vec![Value::str("x"), Value::str("y")]);
        assert_eq!(e.eval_predicate(&s, &row![0, 0, "x"]).unwrap(), Some(true));
        assert_eq!(e.eval_predicate(&s, &row![0, 0, "z"]).unwrap(), Some(false));
    }

    #[test]
    fn columns_collects_all() {
        let e = Expr::col("a")
            .gt(Expr::col("b"))
            .and(Expr::col("s").eq(Expr::lit("q")));
        let cols = e.columns();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string(), "s".to_string()]
        );
    }

    #[test]
    fn rename_columns_rewrites() {
        let e = Expr::col("a").gt(Expr::lit(1));
        let r = e.rename_columns(&|c| format!("x_{c}"));
        assert_eq!(r.columns().into_iter().collect::<Vec<_>>(), vec!["x_a"]);
    }

    #[test]
    fn bind_unknown_column_errors() {
        let s = schema();
        assert!(Expr::col("zzz").bind(&s).is_err());
    }

    #[test]
    fn display_round() {
        let e = Expr::col("a")
            .gt(Expr::lit(5))
            .and(Expr::col("s").eq(Expr::lit("x")));
        assert_eq!(e.to_string(), "((a > 5) AND (s = 'x'))");
    }

    #[test]
    fn conjunction_and_disjunction_empty() {
        let s = schema();
        let t = Expr::conjunction(vec![]);
        assert_eq!(t.eval_predicate(&s, &row![1, 2, "x"]).unwrap(), Some(true));
        let f = Expr::disjunction(vec![]);
        assert_eq!(f.eval_predicate(&s, &row![1, 2, "x"]).unwrap(), Some(false));
    }

    #[test]
    fn conjuncts_invert_conjunction() {
        let atoms = vec![
            Expr::col("a").gt(Expr::lit(1)),
            Expr::col("b").eq(Expr::lit(2)).or(Expr::col("c").is_null()),
            Expr::col("c").lt(Expr::lit(3)),
        ];
        let both = Expr::conjunction(atoms.clone());
        assert_eq!(both.conjuncts(), atoms);
        assert_eq!(Expr::conjunction(both.conjuncts()), both);
        // A right-nested AND splits the same; a lone atom is its own list.
        let right = atoms[0].clone().and(atoms[1].clone().and(atoms[2].clone()));
        assert_eq!(right.conjuncts(), atoms);
        assert_eq!(atoms[1].conjuncts(), vec![atoms[1].clone()]);
    }

    #[test]
    fn data_type_inference() {
        let s = schema();
        assert_eq!(Expr::col("a").data_type(&s), DataType::Int);
        assert_eq!(
            Expr::col("a").gt(Expr::lit(1)).data_type(&s),
            DataType::Bool
        );
        assert_eq!(
            Expr::col("a").add(Expr::col("b")).data_type(&s),
            DataType::Int
        );
    }
}

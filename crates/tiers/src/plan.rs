//! Compiled interaction plans: each RUBiS interaction's SQL, compiled
//! once at workload-build time into a flat opcode program over
//! pre-resolved [`TableId`]/[`ColId`] handles.
//!
//! The 26 interactions have a fixed SQL shape — only the RNG-drawn keys
//! and values change per request — so a [`CompiledPlan`] carries the
//! shape, a request carries a small typed parameter buffer (recycled
//! through the system's pools) holding its draws, and the storage engine
//! executes the steps directly: reads as count-only probes
//! ([`crate::storage::Database::read_step_summary`]), writes once on the
//! primary with `WriteDelta` capture
//! ([`crate::storage::Database::execute_step_capture`]).
//!
//! [`PlanStep::statement`] materializes the prepared [`Statement`] a step
//! stands for: the recovery log records one per write, and
//! `tests/plan_prop.rs` feeds them to the reference model the executor is
//! checked against.

use crate::sql::{ColId, Statement, TableId, Value};
use jade_sim::SimDuration;

/// Where a step operand's value comes from at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A constant baked into the template at compile time.
    Const(Value),
    /// The value in this slot of the request's parameter buffer.
    Param(u16),
}

impl Operand {
    /// Resolves the operand against a request's parameter buffer.
    // jade-audit: allow(hot-panic): Param slots are assigned by the plan
    // compiler against the same parameter layout the generator fills, so
    // slot < params.len() by construction.
    #[inline]
    pub fn resolve<'a>(&'a self, params: &'a [Value]) -> &'a Value {
        match self {
            Operand::Const(v) => v,
            Operand::Param(slot) => &params[*slot as usize],
        }
    }
}

/// One opcode of a compiled program. Table, column and index references
/// are pre-resolved; value positions are [`Operand`]s filled from the
/// parameter buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOp {
    /// Primary-key point read (the compiled `SelectByKey`).
    ReadKey {
        /// Target table.
        table: TableId,
        /// Primary key (resolved via [`Value::as_key`]).
        key: Operand,
    },
    /// Equality-filter read (the compiled `SelectWhere`; the engine takes
    /// the secondary-index probe when the column is indexed).
    Scan {
        /// Target table.
        table: TableId,
        /// Filter column.
        column: ColId,
        /// Filter value.
        value: Operand,
        /// Max rows returned.
        limit: usize,
    },
    /// Live-row count (the compiled `Count`).
    Count {
        /// Target table.
        table: TableId,
    },
    /// Row insert; the row template is full-width in layout order.
    Insert {
        /// Target table.
        table: TableId,
        /// Column values in layout order.
        row: Vec<Operand>,
    },
    /// Column update of the row at `key`.
    Update {
        /// Target table.
        table: TableId,
        /// Primary key (resolved via [`Value::as_key`]).
        key: Operand,
        /// Columns to overwrite.
        set: Vec<(ColId, Operand)>,
    },
}

/// One step of a compiled program: the opcode plus the step's calibrated
/// mean CPU demand on the executing database node (the per-request jitter
/// is applied at plan-instantiation time).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// The operation.
    pub op: StepOp,
    /// Un-jittered mean CPU demand.
    pub demand: SimDuration,
}

impl PlanStep {
    /// True when the step modifies the database (must be logged and
    /// broadcast by the replication layer).
    pub fn is_write(&self) -> bool {
        matches!(self.op, StepOp::Insert { .. } | StepOp::Update { .. })
    }

    /// Materializes the prepared [`Statement`] this step stands for under
    /// a concrete parameter buffer — the cold bridge from a compiled step
    /// to the statement front-end, for tests and reference models. The
    /// request path never calls it: the recovery log holds the primary's
    /// captured delta, not the statement.
    pub fn statement(&self, params: &[Value]) -> Statement {
        match &self.op {
            StepOp::ReadKey { table, key } => Statement::SelectByKey {
                table: *table,
                key: key.resolve(params).as_key(),
            },
            StepOp::Scan {
                table,
                column,
                value,
                limit,
            } => Statement::SelectWhere {
                table: *table,
                column: *column,
                value: value.resolve(params).clone(),
                limit: *limit,
            },
            StepOp::Count { table } => Statement::Count { table: *table },
            StepOp::Insert { table, row } => Statement::Insert {
                table: *table,
                row: row.iter().map(|o| o.resolve(params).clone()).collect(),
            },
            StepOp::Update { table, key, set } => Statement::Update {
                table: *table,
                key: key.resolve(params).as_key(),
                set: set
                    .iter()
                    .map(|(c, o)| (*c, o.resolve(params).clone()))
                    .collect(),
            },
        }
    }
}

/// A whole interaction compiled to a flat program: the steps in issue
/// order plus the size of the parameter buffer a request must fill.
/// Compiled once per interaction type (26 programs per process) and
/// shared by reference; static/form interactions compile to an empty
/// program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// Interaction name (RUBiS servlet name).
    pub name: &'static str,
    /// The program, in statement-issue order.
    pub steps: Vec<PlanStep>,
    /// Number of parameter slots a request's buffer must fill.
    pub params: u16,
    /// True when any step writes (pre-computed `any(is_write)`).
    pub writes: bool,
}

impl CompiledPlan {
    /// Builds a program, pre-computing the write flag.
    pub fn new(name: &'static str, steps: Vec<PlanStep>, params: u16) -> Self {
        let writes = steps.iter().any(PlanStep::is_write);
        CompiledPlan {
            name,
            steps,
            params,
            writes,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for a zero-step (static page) program.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .table("t", &["a", "b"])
            .index("t", "a")
            .build()
    }

    #[test]
    fn operands_resolve_consts_and_params() {
        let params = [Value::Int(7), Value::Text("x".into())];
        assert_eq!(
            Operand::Const(Value::Int(1)).resolve(&params),
            &Value::Int(1)
        );
        assert_eq!(Operand::Param(0).resolve(&params), &Value::Int(7));
        assert_eq!(Operand::Param(1).resolve(&params), &Value::Text("x".into()));
    }

    #[test]
    fn materialized_statements_match_the_prepared_forms() {
        let schema = schema();
        let t = schema.must_table("t");
        let a = schema.must_col("t", "a");
        let params = [Value::Int(3), Value::Int(42)];
        let read = PlanStep {
            op: StepOp::ReadKey {
                table: t,
                key: Operand::Param(0),
            },
            demand: SimDuration::from_millis(1),
        };
        assert_eq!(read.statement(&params), schema.select_by_key("t", 3));
        assert!(!read.is_write());
        let ins = PlanStep {
            op: StepOp::Insert {
                table: t,
                row: vec![Operand::Param(1), Operand::Const(Value::Null)],
            },
            demand: SimDuration::from_millis(1),
        };
        assert_eq!(
            ins.statement(&params),
            schema.insert("t", &[("a", Value::Int(42))])
        );
        assert!(ins.is_write());
        let upd = PlanStep {
            op: StepOp::Update {
                table: t,
                key: Operand::Param(0),
                set: vec![(a, Operand::Param(1))],
            },
            demand: SimDuration::from_millis(1),
        };
        assert_eq!(
            upd.statement(&params),
            schema.update("t", 3, &[("a", Value::Int(42))])
        );
    }

    #[test]
    fn compiled_plan_precomputes_the_write_flag() {
        let schema = schema();
        let t = schema.must_table("t");
        let read_only = CompiledPlan::new(
            "r",
            vec![PlanStep {
                op: StepOp::Count { table: t },
                demand: SimDuration::ZERO,
            }],
            0,
        );
        assert!(!read_only.writes);
        assert_eq!(read_only.len(), 1);
        let writing = CompiledPlan::new(
            "w",
            vec![PlanStep {
                op: StepOp::Insert {
                    table: t,
                    row: vec![Operand::Const(Value::Null), Operand::Const(Value::Null)],
                },
                demand: SimDuration::ZERO,
            }],
            0,
        );
        assert!(writing.writes);
        let empty = CompiledPlan::new("s", Vec::new(), 0);
        assert!(empty.is_empty() && !empty.writes);
    }
}

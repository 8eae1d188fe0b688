//! Request-level types flowing through the multi-tier architecture
//! (paper §2, Figure 1: client → web/app server → database).
//!
//! A request's SQL is one thing: a [`CompiledRun`] — the interaction's
//! shared [`CompiledPlan`] plus the parameter values and jittered demands
//! drawn for this request. The dispatcher walks it with a program counter
//! and hands C-JDBC one borrowed [`DbQuery`] at a time.

use crate::plan::{CompiledPlan, PlanStep};
use crate::sql::Value;
use jade_sim::SimDuration;

/// Unique id of one client HTTP interaction end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// One request's instantiation of a [`CompiledPlan`]: the shared program
/// plus the small per-request buffers — RNG-drawn parameter values and
/// jittered per-step demands. Both buffers recycle through the system's
/// pools, so steady-state plan generation allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRun {
    /// The interaction's compiled program (shared, compiled once).
    pub plan: &'static CompiledPlan,
    /// The request's parameter buffer, one slot per RNG draw.
    pub params: Vec<Value>,
    /// Jittered CPU demand per step, in step order.
    pub demands: Vec<SimDuration>,
}

/// The SQL body of an interaction plan. A compiled run is the only
/// representation; the variant names it where a plan is taken apart
/// (`let SqlProgram::Compiled(run) = plan.sql`).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlProgram {
    /// A compiled-plan instantiation, executed opcode-by-opcode.
    Compiled(CompiledRun),
}

/// A borrowed view of one query at dispatch time — what the C-JDBC
/// dispatch path consumes: the opcode, the run's parameter buffer and the
/// CPU demand to charge the executing MySQL node.
#[derive(Debug, Clone, Copy)]
pub struct DbQuery<'a> {
    /// The opcode to execute.
    pub step: &'a PlanStep,
    /// The request's parameter buffer.
    pub params: &'a [Value],
    /// Jittered CPU demand for this step.
    pub demand: SimDuration,
}

impl SqlProgram {
    fn run(&self) -> &CompiledRun {
        let SqlProgram::Compiled(run) = self;
        run
    }

    /// Number of queries in the program.
    pub fn len(&self) -> usize {
        self.run().plan.steps.len()
    }

    /// True for a query-free (static page) program.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows query `idx` in dispatch form.
    // jade-audit: allow(hot-panic): idx is the dispatcher's program
    // counter, bounded by this program's len() (the dispatch loop stops
    // there).
    pub fn query_at(&self, idx: usize) -> DbQuery<'_> {
        let run = self.run();
        DbQuery {
            step: &run.plan.steps[idx],
            params: &run.params,
            demand: run.demands[idx],
        }
    }

    /// True when query `idx` modifies the database.
    // jade-audit: allow(hot-panic): idx is the dispatcher's program
    // counter, bounded by this program's len().
    pub fn is_write_at(&self, idx: usize) -> bool {
        self.run().plan.steps[idx].is_write()
    }

    /// Total database-tier CPU demand (one replica's worth).
    pub fn db_demand(&self) -> SimDuration {
        self.run()
            .demands
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    /// True when at least one query writes.
    pub fn has_write(&self) -> bool {
        self.run().plan.writes
    }
}

/// The fully resolved work plan of one dynamic web interaction: servlet
/// CPU, then a sequence of SQL queries, then response generation CPU.
///
/// The workload generator (jade-rubis) instantiates one of these per
/// emulated client request, with concrete keys and randomized demands.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionPlan {
    /// Interaction name (one of RUBiS's 26, e.g. `"SearchItemsByCategory"`).
    pub name: &'static str,
    /// Servlet CPU demand before the first query.
    pub pre_demand: SimDuration,
    /// Database queries, executed sequentially.
    pub sql: SqlProgram,
    /// Servlet CPU demand after the last query (page generation).
    pub post_demand: SimDuration,
    /// Response size (network serialization).
    pub response_bytes: u64,
}

impl InteractionPlan {
    /// Total database-tier CPU demand (one replica's worth).
    pub fn db_demand(&self) -> SimDuration {
        self.sql.db_demand()
    }

    /// True when at least one query writes.
    pub fn has_write(&self) -> bool {
        self.sql.has_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Operand, StepOp};
    use crate::sql::Schema;

    fn leak(plan: CompiledPlan) -> &'static CompiledPlan {
        Box::leak(Box::new(plan))
    }

    /// A `ViewItem`-like program: one key read, one insert.
    fn read_then_insert() -> &'static CompiledPlan {
        let schema = Schema::builder().table("items", &["name"]).build();
        let t = schema.must_table("items");
        leak(CompiledPlan::new(
            "ViewItem",
            vec![
                PlanStep {
                    op: StepOp::ReadKey {
                        table: t,
                        key: Operand::Param(0),
                    },
                    demand: SimDuration::from_millis(10),
                },
                PlanStep {
                    op: StepOp::Insert {
                        table: t,
                        row: vec![Operand::Const(Value::Null)],
                    },
                    demand: SimDuration::from_millis(8),
                },
            ],
            1,
        ))
    }

    fn plan_over(plan: &'static CompiledPlan, demands_ms: &[u64]) -> InteractionPlan {
        InteractionPlan {
            name: plan.name,
            pre_demand: SimDuration::from_millis(3),
            sql: SqlProgram::Compiled(CompiledRun {
                plan,
                params: vec![Value::Int(7)],
                demands: demands_ms
                    .iter()
                    .map(|&ms| SimDuration::from_millis(ms))
                    .collect(),
            }),
            post_demand: SimDuration::from_millis(4),
            response_bytes: 4000,
        }
    }

    #[test]
    fn demand_accounting() {
        let plan = plan_over(read_then_insert(), &[10, 8]);
        assert_eq!(
            plan.pre_demand + plan.post_demand,
            SimDuration::from_millis(7)
        );
        assert_eq!(plan.db_demand(), SimDuration::from_millis(18));
        assert!(plan.has_write());
    }

    #[test]
    fn static_pages_have_no_sql() {
        let p = plan_over(leak(CompiledPlan::new("index.html", Vec::new(), 0)), &[]);
        assert!(p.sql.is_empty());
        assert!(!p.has_write());
        assert_eq!(p.db_demand(), SimDuration::ZERO);
    }

    #[test]
    fn compiled_runs_answer_per_query_questions() {
        let sql = plan_over(read_then_insert(), &[11, 9]).sql;
        assert_eq!(sql.len(), 2);
        assert!(!sql.is_empty());
        assert!(!sql.is_write_at(0));
        assert!(sql.is_write_at(1));
        assert!(sql.has_write());
        // The jittered demands are charged, not the plan's means.
        assert_eq!(sql.db_demand(), SimDuration::from_millis(20));
        let q = sql.query_at(0);
        assert!(!q.step.is_write());
        assert_eq!(q.demand, SimDuration::from_millis(11));
        assert_eq!(q.params, [Value::Int(7)]);
    }
}

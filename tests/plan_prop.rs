//! Differential property tests of the opcode executor
//! (`jade_tiers::plan` programs run by `jade_tiers::storage::Database`)
//! against the simplest model of the same SQL: `NaiveDatabase`
//! (`tests/support/naive_database.rs`) interpreting the statement each
//! step stands for (`PlanStep::statement`).
//!
//! For every interaction template and seeded parameter stream the executor
//! must match the model **summary-for-summary** (count-only read probes
//! and captured writes against the model's materialized results),
//! **error-for-error** (against databases that lack the tables, or the
//! whole schema), and **digest-for-digest** (contents byte-identical after
//! every interaction that writes). Under replication, a replica that only ever applies
//! the primary's captured `WriteDelta`s — or re-executes the logged
//! statement when the capture failed — converges to the same digest, write
//! for write.
//!
//! What the generator draws (RNG order, key-space growth, jitter, the SQL
//! text of every template) is pinned separately, by the golden
//! statement-stream test in `jade_rubis::interactions`.
//!
//! Reproduce a failure with `PROPCHECK_SEED` / `PROPCHECK_CASES` as
//! printed by the harness.

#[path = "support/naive_database.rs"]
mod naive_database;

use jade_propcheck::run;
use jade_rubis::interactions::{generate_plan_compiled_into, INTERACTIONS};
use jade_rubis::{dataset_statements, rubis_schema, DatasetSpec, InteractionMix, KeySpace};
use jade_sim::SimRng;
use jade_tiers::request::{CompiledRun, SqlProgram};
use jade_tiers::sql::{ExecSummary, Schema, SqlError, Statement};
use jade_tiers::storage::Database;
use jade_tiers::InteractionPlan;
use naive_database::{NaiveDatabase, NaiveQueryResult};

/// The executor and the model loaded with the same RUBiS dataset through
/// the statement front-end (the dataset seed is fixed so scan postings
/// are non-trivial but reproducible). Under the `small` spec a category
/// holds ~50 items and a region ~5 users, so scan limits both bind and do
/// not; `tiny` keeps the per-case cost down where that does not matter.
/// `without` names a table to leave out entirely, so that every statement
/// touching it fails on both sides.
fn loaded(spec: DatasetSpec, without: Option<&str>) -> (Database, NaiveDatabase) {
    let schema = rubis_schema();
    let skip = without.map(|name| schema.must_table(name));
    let mut rng = SimRng::seed_from_u64(0xD0D0);
    let mut db = Database::new(schema.clone());
    let mut model = NaiveDatabase::new();
    for stmt in dataset_statements(spec, &mut rng) {
        if Some(stmt.table()) != skip {
            db.execute(&stmt).expect("dataset loads");
            model.execute(&schema, &stmt).expect("dataset loads");
        }
    }
    assert_eq!(db.digest(), model.digest(), "loaded state");
    (db, model)
}

/// What the executor reports for a query the model answered with `res`.
fn summary_of(res: NaiveQueryResult) -> ExecSummary {
    match res {
        NaiveQueryResult::Ack {
            inserted_key,
            affected,
        } => ExecSummary::Ack {
            inserted_key,
            affected,
        },
        NaiveQueryResult::Rows(rows) => ExecSummary::Rows(rows.len()),
        NaiveQueryResult::Count(n) => ExecSummary::Count(n),
    }
}

fn compiled_run(plan: &InteractionPlan) -> &CompiledRun {
    let SqlProgram::Compiled(run) = &plan.sql;
    run
}

/// Runs every query of `plan` on the executor — reads as count probes on
/// `primary`, writes captured on `primary` and mirrored onto `replica` by
/// delta (or by re-executing the statement when the capture failed, as the
/// C-JDBC broadcast does) — and on the model, comparing outcome by
/// outcome. Returns how many queries failed (identically) on both sides.
fn check_plan(
    schema: &Schema,
    plan: &InteractionPlan,
    primary: &mut Database,
    replica: &mut Database,
    model: &mut NaiveDatabase,
) -> usize {
    let name = plan.name;
    let run = compiled_run(plan);
    let mut failed = 0;
    for (idx, step) in run.plan.steps.iter().enumerate() {
        let stmt: Statement = step.statement(&run.params);
        let expected: Result<ExecSummary, SqlError> = model.execute(schema, &stmt).map(summary_of);
        // The dispatch-path view agrees on classification and demand.
        let q = plan.sql.query_at(idx);
        assert_eq!(
            q.step.is_write(),
            stmt.is_write(),
            "{name} step {idx} class"
        );
        assert_eq!(plan.sql.is_write_at(idx), stmt.is_write());
        assert_eq!(q.demand, run.demands[idx], "{name} step {idx} demand");
        if !step.is_write() {
            let got = primary.read_step_summary(step, &run.params);
            assert_eq!(got, expected, "{name} step {idx}: {}", stmt.render(schema));
        } else {
            match primary.execute_step_capture(step, &run.params) {
                Ok((summary, delta)) => {
                    assert_eq!(Ok(summary), expected, "{name} step {idx} write");
                    replica.apply_delta(&delta).expect("captured delta applies");
                }
                Err(e) => {
                    assert_eq!(Err(e.clone()), expected, "{name} step {idx} write error");
                    let replayed = replica.execute(&stmt).map(|_| ());
                    assert_eq!(replayed, Err(e), "{name} step {idx} replica fallback");
                }
            }
        }
        failed += usize::from(expected.is_err());
    }
    // A read probe takes `&Database`, so only a writing interaction can
    // have moved the contents.
    if plan.has_write() {
        let d = model.digest();
        assert_eq!(primary.digest(), d, "{name} primary digest");
        assert_eq!(replica.digest(), d, "{name} replica digest");
    }
    failed
}

/// Every interaction template, under random seeds, against the pristine
/// dataset: summaries and digests match the model, and a delta-applying
/// replica tracks the primary.
#[test]
fn compiled_matches_interpreted_per_interaction() {
    run("compiled_matches_interpreted_per_interaction", 24, |g| {
        let schema = rubis_schema();
        let (mut primary, mut model) = loaded(DatasetSpec::small(), None);
        let mut replica = primary.clone();
        let mut rng = SimRng::seed_from_u64(g.u64(0..u64::MAX));
        let mut ks: KeySpace = DatasetSpec::small().into();
        for i in 0..INTERACTIONS.len() {
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            let failed = check_plan(&schema, &plan, &mut primary, &mut replica, &mut model);
            assert_eq!(failed, 0, "{}: the dataset has every table", plan.name);
        }
        assert_eq!(primary, replica, "structural equality, indexes included");
    });
}

/// A long stationary bidding-mix stream: the differential holds across
/// accumulated state (inserted keys, grown postings, updated rows), not
/// just against the pristine dataset.
#[test]
fn compiled_matches_interpreted_over_a_mix_stream() {
    run("compiled_matches_interpreted_over_a_mix_stream", 12, |g| {
        let schema = rubis_schema();
        let n = g.usize(20..120);
        let mix = InteractionMix::bidding();
        let (mut primary, mut model) = loaded(DatasetSpec::small(), None);
        let mut replica = primary.clone();
        let mut rng = SimRng::seed_from_u64(g.u64(0..u64::MAX));
        let mut ks: KeySpace = DatasetSpec::small().into();
        for _ in 0..n {
            let i = mix.sample_index(&mut rng);
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            check_plan(&schema, &plan, &mut primary, &mut replica, &mut model);
        }
        assert_eq!(primary, replica, "structural equality, indexes included");
    });
}

/// Error-for-error parity on a schema-less database: every step fails
/// with exactly the error the model reports for its statement, and
/// nothing is mutated.
#[test]
fn compiled_errors_match_interpreted_errors() {
    run("compiled_errors_match_interpreted_errors", 12, |g| {
        let schema = Schema::empty();
        let mut primary = Database::new(schema.clone());
        let mut replica = primary.clone();
        let mut model = NaiveDatabase::new();
        let mut rng = SimRng::seed_from_u64(g.u64(0..u64::MAX));
        let mut ks: KeySpace = DatasetSpec::tiny().into();
        for i in 0..INTERACTIONS.len() {
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            let failed = check_plan(&schema, &plan, &mut primary, &mut replica, &mut model);
            assert_eq!(
                failed,
                plan.sql.len(),
                "{}: every step must miss",
                plan.name
            );
        }
        assert_eq!(primary.total_rows(), 0);
        assert_eq!(primary, Database::new(schema));
    });
}

/// Delta capture under failures: with one table missing from every copy,
/// a bidding-mix stream mixes captured writes (mirrored by delta) with
/// failed captures (mirrored by re-executing the logged statement); the
/// replica and the model stay on the primary's digest write for write.
#[test]
fn compiled_delta_capture_matches_interpreted() {
    run("compiled_delta_capture_matches_interpreted", 12, |g| {
        let schema = rubis_schema();
        let n = g.usize(40..160);
        let missing = *g.choose(&["comments", "bids", "buy_now"]);
        let mix = InteractionMix::bidding();
        let (mut primary, mut model) = loaded(DatasetSpec::tiny(), Some(missing));
        let mut replica = primary.clone();
        let mut rng = SimRng::seed_from_u64(g.u64(0..u64::MAX));
        let mut ks: KeySpace = DatasetSpec::tiny().into();
        for _ in 0..n {
            let i = mix.sample_index(&mut rng);
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            check_plan(&schema, &plan, &mut primary, &mut replica, &mut model);
        }
        // One of the three storing interactions inserts into the missing
        // table, so every case meets at least one failed capture.
        let mut failed = 0;
        for name in ["StoreBid", "StoreComment", "StoreBuyNow"] {
            let i = INTERACTIONS.iter().position(|t| t.name == name).unwrap();
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            failed += check_plan(&schema, &plan, &mut primary, &mut replica, &mut model);
        }
        assert!(failed > 0, "no write met the missing table {missing}");
        assert_eq!(primary, replica, "structural equality, indexes included");
    });
}

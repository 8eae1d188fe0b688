//! Fixture-driven tests for the analyzer: one bad and one good fixture
//! per rule, asserting the exact `(line, rule)` of every diagnostic, plus
//! suppression semantics and binary exit codes.

use jade_audit::check_files;
use jade_audit::rules::{Config, Rule};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Diagnostics for one fixture as `(line, rule)` pairs, asserting every
/// diagnostic points at the fixture file itself.
fn diags(name: &str) -> Vec<(u32, Rule)> {
    let out = check_files(&[fixture(name)], &Config::default());
    out.iter().for_each(|d| {
        assert!(
            d.file.ends_with(name),
            "diagnostic for wrong file: {} (expected {name})",
            d.file
        );
    });
    out.into_iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn nondet_time_fixtures() {
    assert_eq!(
        diags("bad_nondet_time.rs"),
        vec![(5, Rule::NondetTime), (6, Rule::NondetTime)]
    );
    assert_eq!(diags("good_nondet_time.rs"), vec![]);
}

#[test]
fn nondet_rand_fixtures() {
    assert_eq!(
        diags("bad_nondet_rand.rs"),
        vec![(3, Rule::NondetRand), (8, Rule::NondetRand)]
    );
    assert_eq!(diags("good_nondet_rand.rs"), vec![]);
}

#[test]
fn nondet_env_fixtures() {
    assert_eq!(
        diags("bad_nondet_env.rs"),
        vec![(3, Rule::NondetEnv), (4, Rule::NondetEnv)]
    );
    assert_eq!(diags("good_nondet_env.rs"), vec![]);
}

#[test]
fn nondet_hasher_fixtures() {
    assert_eq!(
        diags("bad_nondet_hasher.rs"),
        vec![
            (5, Rule::NondetHasher),
            (8, Rule::NondetHasher),
            (9, Rule::NondetHasher)
        ]
    );
    assert_eq!(diags("good_nondet_hasher.rs"), vec![]);
}

#[test]
fn unordered_iter_fixtures() {
    assert_eq!(
        diags("bad_unordered_iter.rs"),
        vec![(11, Rule::UnorderedIter)]
    );
    assert_eq!(diags("good_unordered_iter.rs"), vec![]);
}

#[test]
fn packing_cast_fixtures() {
    assert_eq!(
        diags("bad_packing_cast.rs"),
        vec![(5, Rule::PackingCast), (9, Rule::PackingCast)]
    );
    assert_eq!(diags("good_packing_cast.rs"), vec![]);
}

#[test]
fn hot_panic_fixtures() {
    assert_eq!(
        diags("bad_hot_panic.rs"),
        vec![(9, Rule::HotPanic), (14, Rule::HotPanic)]
    );
    assert_eq!(diags("good_hot_panic.rs"), vec![]);
}

#[test]
fn hot_alloc_fixtures() {
    assert_eq!(
        diags("bad_hot_alloc.rs"),
        vec![
            (9, Rule::HotAlloc),
            (11, Rule::HotAlloc),
            (18, Rule::HotAlloc)
        ]
    );
    assert_eq!(diags("good_hot_alloc.rs"), vec![]);
}

#[test]
fn float_fold_fixtures() {
    assert_eq!(
        diags("bad_float_fold.rs"),
        vec![(10, Rule::FloatFold), (14, Rule::FloatFold)]
    );
    assert_eq!(diags("good_float_fold.rs"), vec![]);
}

#[test]
fn unbounded_growth_fixtures() {
    assert_eq!(
        diags("bad_unbounded_growth.rs"),
        vec![(10, Rule::UnboundedGrowth), (11, Rule::UnboundedGrowth)]
    );
    assert_eq!(diags("good_unbounded_growth.rs"), vec![]);
}

#[test]
fn suppression_fixtures() {
    // Reason-less, unknown-rule and unrecognized directives are each a
    // bad-suppression violation at the directive's own line — including
    // a leftover `hot` comment, which `#[jade_hot]` replaced.
    assert_eq!(
        diags("bad_suppression.rs"),
        vec![
            (3, Rule::BadSuppression),
            (8, Rule::BadSuppression),
            (13, Rule::BadSuppression),
            (17, Rule::BadSuppression)
        ]
    );
    // Reasoned suppressions (preceding-line and same-line forms) silence
    // real violations entirely.
    assert_eq!(diags("good_suppression.rs"), vec![]);
}

#[test]
fn suppression_binds_to_the_item_through_attributes() {
    // A suppression directly above `#[jade_hot]` (or above the signature,
    // below the attribute) covers the item's whole body, not just the
    // next line.
    assert_eq!(diags("good_suppression_item.rs"), vec![]);
}

#[test]
fn file_scope_allow_covers_the_whole_file() {
    assert_eq!(diags("good_suppression_file.rs"), vec![]);
}

#[test]
fn lexer_corners_produce_no_false_positives() {
    // Raw strings, nested block comments and lifetime ticks carry text
    // that would trip nondet-time/nondet-rand if it leaked into tokens.
    assert_eq!(diags("good_lexer_corners.rs"), vec![]);
}

#[test]
fn disable_switches_rules_off() {
    let mut cfg = Config::default();
    cfg.disabled.insert(Rule::NondetTime);
    let out = check_files(&[fixture("bad_nondet_time.rs")], &cfg);
    assert!(out.is_empty(), "disabled rule must not fire: {out:?}");
}

#[test]
fn plan_module_is_inside_the_digest_scope() {
    use jade_audit::rules::{rule_in_scope, ScopeMode};
    // The compiled-plan layer feeds outcome digests exactly like the
    // statement engine it shadows: workspace scoping must hold the plan
    // module (and the storage/emission files it plugs into) to the
    // hasher, iteration-order, and packing-cast rules.
    // The streamed observation plane (ring sensors, cursor-cached
    // series, dense probe tick) feeds the same digests: its modules stay
    // in scope too.
    for path in [
        "crates/tiers/src/plan.rs",
        "crates/tiers/src/storage.rs",
        "crates/rubis/src/interactions.rs",
        "crates/sim/src/metrics.rs",
        "crates/core/src/system/manage.rs",
    ] {
        for rule in [Rule::NondetHasher, Rule::UnorderedIter, Rule::PackingCast] {
            assert!(
                rule_in_scope(rule, path, ScopeMode::Workspace),
                "{path} must be covered by {} in workspace scope",
                rule.id()
            );
        }
    }
    // request.rs is a hand-audited packing module: the cast exemption is
    // surgical — it must not leak onto the digest rules there, nor onto
    // the plan module at all.
    let req = "crates/tiers/src/request.rs";
    assert!(!rule_in_scope(Rule::PackingCast, req, ScopeMode::Workspace));
    assert!(rule_in_scope(Rule::NondetHasher, req, ScopeMode::Workspace));
    assert!(rule_in_scope(
        Rule::UnorderedIter,
        req,
        ScopeMode::Workspace
    ));
    // The figure harness reads no clock and its CLI no environment: the
    // wall-clock and environment rules hold in every crate.
    assert!(rule_in_scope(
        Rule::NondetTime,
        "crates/bench/src/harness.rs",
        ScopeMode::Workspace
    ));
    assert!(rule_in_scope(
        Rule::NondetEnv,
        "crates/bench/src/cli.rs",
        ScopeMode::Workspace
    ));
}

#[test]
fn every_rule_id_round_trips() {
    for r in jade_audit::rules::ALL_RULES {
        assert_eq!(Rule::parse(r.id()), Some(r));
    }
    assert_eq!(Rule::parse("no-such-rule"), None);
}

const BAD_FIXTURES: [&str; 11] = [
    "bad_nondet_time.rs",
    "bad_nondet_rand.rs",
    "bad_nondet_env.rs",
    "bad_nondet_hasher.rs",
    "bad_unordered_iter.rs",
    "bad_packing_cast.rs",
    "bad_hot_panic.rs",
    "bad_hot_alloc.rs",
    "bad_float_fold.rs",
    "bad_unbounded_growth.rs",
    "bad_suppression.rs",
];

const GOOD_FIXTURES: [&str; 12] = [
    "good_nondet_time.rs",
    "good_nondet_rand.rs",
    "good_nondet_env.rs",
    "good_nondet_hasher.rs",
    "good_unordered_iter.rs",
    "good_packing_cast.rs",
    "good_hot_panic.rs",
    "good_hot_alloc.rs",
    "good_float_fold.rs",
    "good_unbounded_growth.rs",
    "good_suppression.rs",
    "good_suppression_item.rs",
];

#[test]
fn check_exits_nonzero_on_each_bad_fixture() {
    let exe = env!("CARGO_BIN_EXE_jade-audit");
    for bad in BAD_FIXTURES {
        let status = Command::new(exe)
            .arg("check")
            .arg(fixture(bad))
            .status()
            .expect("spawn jade-audit");
        assert!(!status.success(), "`check {bad}` must exit nonzero");
    }
}

#[test]
fn check_exits_zero_on_each_good_fixture() {
    let exe = env!("CARGO_BIN_EXE_jade-audit");
    for good in GOOD_FIXTURES {
        let status = Command::new(exe)
            .arg("check")
            .arg(fixture(good))
            .status()
            .expect("spawn jade-audit");
        assert!(status.success(), "`check {good}` must exit zero");
    }
}

#[test]
fn fix_list_exits_zero_and_emits_json() {
    let exe = env!("CARGO_BIN_EXE_jade-audit");
    let out = Command::new(exe)
        .arg("fix-list")
        .arg(fixture("bad_nondet_time.rs"))
        .output()
        .expect("spawn jade-audit");
    assert!(out.status.success(), "fix-list always exits zero");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.contains("\"rule\": \"nondet-time\""));
    assert!(stdout.contains("\"line\": 5"));
}

#[test]
fn list_rules_covers_the_interprocedural_rules() {
    let exe = env!("CARGO_BIN_EXE_jade-audit");
    let out = Command::new(exe)
        .arg("list-rules")
        .output()
        .expect("spawn jade-audit");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for id in ["hot-alloc", "float-fold", "unbounded-growth", "hot-panic"] {
        assert!(stdout.contains(id), "list-rules must mention {id}");
    }
}

/// Property: interprocedural hotness is a *strict* superset of textual
/// marking on the real workspace. Every `#[jade_hot]` root is in the
/// reachable set, and the closure extends well beyond the annotated
/// bodies — if this ever collapses to equality, call-graph propagation
/// has silently stopped resolving calls.
#[test]
fn hot_reachability_strictly_extends_textual_marking() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let files = jade_audit::load_workspace(&root);
    let report = jade_audit::hot_report(&files);
    assert!(
        !report.roots.is_empty(),
        "the workspace must declare hot roots"
    );
    assert!(
        report.total_reachable > report.roots.len(),
        "hot closure ({}) must strictly exceed the textual roots ({})",
        report.total_reachable,
        report.roots.len()
    );
    // The roots live in sim (engine step/run_until) and core (handle,
    // on_db_dispatch); propagation must cross crate boundaries into the
    // tiers they drive.
    for unit in ["crates/sim", "crates/core", "crates/tiers"] {
        let n = report
            .reachable_by_unit
            .iter()
            .find(|(u, _)| u == unit)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(n > 0, "{unit} must contain hot-reachable functions");
    }
}

/// The committed hot-root snapshot (`crates/audit/hot_roots.json`, which
/// CI diffs against a fresh `inventory --format json`) must match the
/// live workspace — a drifted snapshot means a hot entry point was added
/// or moved without updating the audit contract.
#[test]
fn hot_roots_snapshot_is_current() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let exe = env!("CARGO_BIN_EXE_jade-audit");
    let out = Command::new(exe)
        .arg("inventory")
        .arg("--root")
        .arg(&root)
        .arg("--format")
        .arg("json")
        .output()
        .expect("spawn jade-audit");
    assert!(out.status.success());
    let live = String::from_utf8(out.stdout).expect("utf8");
    let committed =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("hot_roots.json"))
            .expect("crates/audit/hot_roots.json must be committed");
    assert_eq!(
        live.trim(),
        committed.trim(),
        "hot_roots.json is stale: regenerate with \
         `jade-audit inventory --format json > crates/audit/hot_roots.json`"
    );
}

#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let exe = env!("CARGO_BIN_EXE_jade-audit");
    let out = Command::new(exe)
        .arg("check")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn jade-audit");
    assert!(
        out.status.success(),
        "workspace must stay audit-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

//! The 26 RUBiS web interactions (paper §5.2: "It defines 26 web
//! interactions, such as registering new users, browsing, buying or
//! selling items").
//!
//! Each interaction carries a weight (its share of the default bidding
//! mix, ~15% read-write), servlet CPU demands, and its SQL as a
//! [`CompiledPlan`] over the RUBiS schema — the fixed shape compiled once
//! per process, of which a request fills only the parameter buffer with
//! its RNG-drawn keys and values. CPU demands are calibrated so
//! the tier saturation points land where the paper's Figure 5 puts them
//! (first database replica added around 180 clients, the second around
//! 320, the application tier scaling at around 420 clients).

use crate::schema::{rubis_ids, KeySpace};
use jade_sim::{SimDuration, SimRng};
use jade_tiers::plan::{CompiledPlan, Operand, PlanStep, StepOp};
use jade_tiers::request::{CompiledRun, InteractionPlan, SqlProgram};
use jade_tiers::sql::Value;
use std::sync::OnceLock;

/// How an interaction touches the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionKind {
    /// No database access (static or form page).
    Static,
    /// Read-only queries.
    ReadOnly,
    /// At least one write.
    ReadWrite,
}

/// Descriptor of one interaction type.
#[derive(Debug, Clone, Copy)]
pub struct InteractionType {
    /// Interaction name (RUBiS servlet name).
    pub name: &'static str,
    /// Relative frequency in the workload mix.
    pub weight: f64,
    /// Servlet CPU before the first query, ms.
    pub pre_ms: f64,
    /// Servlet CPU after the last query (page generation), ms.
    pub post_ms: f64,
    /// Database access class.
    pub kind: InteractionKind,
    /// Response document size, bytes.
    pub response_bytes: u64,
}

macro_rules! itx {
    ($name:literal, $w:expr, $pre:expr, $post:expr, $kind:ident, $bytes:expr) => {
        InteractionType {
            name: $name,
            weight: $w,
            pre_ms: $pre,
            post_ms: $post,
            kind: InteractionKind::$kind,
            response_bytes: $bytes,
        }
    };
}

/// The full RUBiS interaction table (26 entries).
pub const INTERACTIONS: &[InteractionType] = &[
    itx!("Home", 4.0, 1.0, 1.0, Static, 3_000),
    itx!("Register", 1.0, 0.5, 0.5, Static, 2_500),
    itx!("RegisterUser", 1.0, 3.0, 3.0, ReadWrite, 2_000),
    itx!("Browse", 6.0, 1.0, 1.0, Static, 2_800),
    itx!("BrowseCategories", 8.0, 2.0, 2.0, ReadOnly, 4_000),
    itx!("SearchItemsInCategory", 18.0, 10.0, 14.0, ReadOnly, 12_000),
    itx!("BrowseRegions", 4.0, 2.0, 2.0, ReadOnly, 3_500),
    itx!("BrowseCategoriesInRegion", 4.0, 2.0, 2.0, ReadOnly, 4_000),
    itx!("SearchItemsInRegion", 10.0, 9.0, 13.0, ReadOnly, 11_000),
    itx!("ViewItem", 14.0, 6.0, 8.0, ReadOnly, 7_500),
    itx!("ViewUserInfo", 4.0, 4.0, 4.0, ReadOnly, 5_000),
    itx!("ViewBidHistory", 4.0, 5.0, 5.0, ReadOnly, 6_000),
    itx!("BuyNowAuth", 1.0, 1.0, 1.0, Static, 2_200),
    itx!("BuyNow", 1.5, 4.0, 4.0, ReadOnly, 4_500),
    itx!("StoreBuyNow", 1.0, 4.0, 4.0, ReadWrite, 2_400),
    itx!("PutBidAuth", 2.0, 1.0, 1.0, Static, 2_200),
    itx!("PutBid", 3.0, 5.0, 5.0, ReadOnly, 5_500),
    itx!("StoreBid", 3.0, 4.0, 4.0, ReadWrite, 2_600),
    itx!("PutCommentAuth", 1.0, 1.0, 1.0, Static, 2_200),
    itx!("PutComment", 1.0, 3.0, 3.0, ReadOnly, 4_000),
    itx!("StoreComment", 1.0, 4.0, 4.0, ReadWrite, 2_400),
    itx!("Sell", 1.0, 1.0, 1.0, Static, 2_300),
    itx!("SelectCategoryToSellItem", 1.0, 2.0, 2.0, ReadOnly, 3_200),
    itx!("SellItemForm", 1.0, 1.0, 1.0, Static, 2_600),
    itx!("RegisterItem", 1.5, 5.0, 5.0, ReadWrite, 2_800),
    itx!("AboutMe", 3.0, 7.0, 7.0, ReadOnly, 9_000),
];

fn ms(x: f64) -> SimDuration {
    SimDuration::from_secs_f64(x / 1e3)
}

/// A weighted interaction mix. RUBiS ships two: the *bidding* mix
/// (default, ~15 % read-write) and the *browsing* mix (read-only).
#[derive(Debug, Clone)]
pub struct InteractionMix {
    name: &'static str,
    weights: Vec<f64>,
}

impl InteractionMix {
    /// The default bidding mix (the table's weights).
    pub fn bidding() -> Self {
        InteractionMix {
            name: "bidding",
            weights: INTERACTIONS.iter().map(|t| t.weight).collect(),
        }
    }

    /// The browsing mix: read-write interactions excluded, remaining
    /// weights unchanged (RUBiS's browsing-only workload).
    pub fn browsing() -> Self {
        InteractionMix {
            name: "browsing",
            weights: INTERACTIONS
                .iter()
                .map(|t| {
                    if t.kind == InteractionKind::ReadWrite {
                        0.0
                    } else {
                        t.weight
                    }
                })
                .collect(),
        }
    }

    /// Mix name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Samples an interaction type.
    pub fn sample(&self, rng: &mut SimRng) -> &'static InteractionType {
        &INTERACTIONS[self.sample_index(rng)]
    }

    /// Samples an interaction's index into [`INTERACTIONS`] — same single
    /// draw as [`InteractionMix::sample`]. The aggregate client pool uses
    /// the index form because it defers plan generation to dispatch time
    /// and carries the choice through a message.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        rng.weighted(&self.weights)
    }
}

// Each interaction's SQL shape as a flat [`CompiledPlan`]; the per-request
// path fills a small typed parameter buffer (`fill_params_into`, one slot
// per RNG draw) and never builds a statement.

fn step(op: StepOp, demand_ms: f64) -> PlanStep {
    PlanStep {
        op,
        demand: ms(demand_ms),
    }
}

fn p(slot: u16) -> Operand {
    Operand::Param(slot)
}

fn compile_interaction(t: &InteractionType) -> CompiledPlan {
    let ids = rubis_ids();
    let (steps, params) = match t.name {
        // Slots: 0 = region, 1 = nickname. Layout: [nickname, region, rating].
        "RegisterUser" => (
            vec![step(
                StepOp::Insert {
                    table: ids.users,
                    row: vec![p(1), p(0), Operand::Const(Value::Int(0))],
                },
                8.0,
            )],
            2,
        ),
        "BrowseCategories" | "BrowseCategoriesInRegion" | "SelectCategoryToSellItem" => (
            vec![step(
                StepOp::Count {
                    table: ids.categories,
                },
                8.0,
            )],
            0,
        ),
        "SearchItemsInCategory" => (
            vec![step(
                StepOp::Scan {
                    table: ids.items,
                    column: ids.item_category,
                    value: p(0),
                    limit: 25,
                },
                58.0,
            )],
            1,
        ),
        "BrowseRegions" => (vec![step(StepOp::Count { table: ids.regions }, 6.0)], 0),
        "SearchItemsInRegion" => (
            vec![step(
                StepOp::Scan {
                    table: ids.users,
                    column: ids.user_region,
                    value: p(0),
                    limit: 25,
                },
                52.0,
            )],
            1,
        ),
        "ViewItem" => (
            vec![
                step(
                    StepOp::ReadKey {
                        table: ids.items,
                        key: p(0),
                    },
                    10.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.bids,
                        column: ids.bid_item,
                        value: p(0),
                        limit: 20,
                    },
                    22.0,
                ),
            ],
            1,
        ),
        "ViewUserInfo" => (
            vec![
                step(
                    StepOp::ReadKey {
                        table: ids.users,
                        key: p(0),
                    },
                    8.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.comments,
                        column: ids.comment_author,
                        value: p(0),
                        limit: 20,
                    },
                    14.0,
                ),
            ],
            1,
        ),
        "ViewBidHistory" => (
            vec![
                step(
                    StepOp::ReadKey {
                        table: ids.items,
                        key: p(0),
                    },
                    8.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.bids,
                        column: ids.bid_item,
                        value: p(0),
                        limit: 30,
                    },
                    20.0,
                ),
            ],
            1,
        ),
        "BuyNow" => (
            vec![step(
                StepOp::ReadKey {
                    table: ids.items,
                    key: p(0),
                },
                10.0,
            )],
            1,
        ),
        // Slots: 0 = item, 1 = buyer. Layout: [item, buyer].
        "StoreBuyNow" => (
            vec![
                step(
                    StepOp::Insert {
                        table: ids.buy_now,
                        row: vec![p(0), p(1)],
                    },
                    10.0,
                ),
                step(
                    StepOp::Update {
                        table: ids.items,
                        key: p(0),
                        set: vec![(ids.item_quantity, Operand::Const(Value::Int(0)))],
                    },
                    8.0,
                ),
            ],
            2,
        ),
        "PutBid" => (
            vec![
                step(
                    StepOp::ReadKey {
                        table: ids.items,
                        key: p(0),
                    },
                    10.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.bids,
                        column: ids.bid_item,
                        value: p(0),
                        limit: 10,
                    },
                    14.0,
                ),
            ],
            1,
        ),
        // Slots: 0 = item, 1 = bidder, 2 = amount. Layout: [item, bidder, amount].
        "StoreBid" => (
            vec![
                step(
                    StepOp::Insert {
                        table: ids.bids,
                        row: vec![p(0), p(1), p(2)],
                    },
                    10.0,
                ),
                step(
                    StepOp::ReadKey {
                        table: ids.items,
                        key: p(0),
                    },
                    6.0,
                ),
            ],
            3,
        ),
        // Slots: 0 = user, 1 = item.
        "PutComment" => (
            vec![
                step(
                    StepOp::ReadKey {
                        table: ids.users,
                        key: p(0),
                    },
                    6.0,
                ),
                step(
                    StepOp::ReadKey {
                        table: ids.items,
                        key: p(1),
                    },
                    6.0,
                ),
            ],
            2,
        ),
        // Slots: 0 = author, 1 = item. Layout: [item, author, text].
        "StoreComment" => (
            vec![
                step(
                    StepOp::Insert {
                        table: ids.comments,
                        row: vec![
                            p(1),
                            p(0),
                            Operand::Const(Value::Text("great seller".into())),
                        ],
                    },
                    10.0,
                ),
                step(
                    StepOp::Update {
                        table: ids.users,
                        key: p(0),
                        set: vec![(ids.user_rating, Operand::Const(Value::Int(1)))],
                    },
                    6.0,
                ),
            ],
            2,
        ),
        // Slots: 0 = seller, 1 = category, 2 = name, 3 = price.
        // Layout: [name, seller, category, price, quantity].
        "RegisterItem" => (
            vec![step(
                StepOp::Insert {
                    table: ids.items,
                    row: vec![p(2), p(0), p(1), p(3), Operand::Const(Value::Int(1))],
                },
                12.0,
            )],
            4,
        ),
        "AboutMe" => (
            vec![
                step(
                    StepOp::ReadKey {
                        table: ids.users,
                        key: p(0),
                    },
                    8.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.bids,
                        column: ids.bid_bidder,
                        value: p(0),
                        limit: 20,
                    },
                    16.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.items,
                        column: ids.item_seller,
                        value: p(0),
                        limit: 20,
                    },
                    16.0,
                ),
                step(
                    StepOp::Scan {
                        table: ids.comments,
                        column: ids.comment_author,
                        value: p(0),
                        limit: 10,
                    },
                    10.0,
                ),
            ],
            1,
        ),
        // Static / form pages compile to the empty program.
        _ => (Vec::new(), 0),
    };
    CompiledPlan::new(t.name, steps, params)
}

/// The 26 compiled programs, indexed like [`INTERACTIONS`] — built once
/// per process and shared by reference across every request.
// jade-audit: allow(hot-alloc): built once per process behind a
// OnceLock — every later call returns the cached slice by reference.
pub fn compiled_plans() -> &'static [CompiledPlan] {
    static PLANS: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    PLANS.get_or_init(|| INTERACTIONS.iter().map(compile_interaction).collect())
}

/// Fills one request's parameter buffer, one slot per RNG draw in draw
/// order, growing the key space when the interaction inserts rows. The
/// draw order is part of every committed outcome digest; the golden
/// statement-stream test below pins it.
// jade-audit: allow(hot-alloc): the format!ed Text values are the
// request's SQL parameters and become row data owned by the database;
// only the two Register* interactions take these arms.
fn fill_params_into(
    t: &InteractionType,
    ks: &mut KeySpace,
    rng: &mut SimRng,
    out: &mut Vec<Value>,
) {
    match t.name {
        "RegisterUser" => {
            let region = ks.region(rng);
            ks.users += 1;
            out.push(Value::Int(region as i64));
            out.push(Value::Text(format!("newuser{}", ks.users)));
        }
        "SearchItemsInCategory" => out.push(Value::Int(ks.category(rng) as i64)),
        "SearchItemsInRegion" => out.push(Value::Int(ks.region(rng) as i64)),
        "ViewItem" | "ViewBidHistory" | "BuyNow" | "PutBid" => {
            out.push(Value::Int(ks.item(rng) as i64))
        }
        "ViewUserInfo" | "AboutMe" => out.push(Value::Int(ks.user(rng) as i64)),
        "StoreBuyNow" => {
            out.push(Value::Int(ks.item(rng) as i64));
            out.push(Value::Int(ks.user(rng) as i64));
        }
        "StoreBid" => {
            out.push(Value::Int(ks.item(rng) as i64));
            out.push(Value::Int(ks.user(rng) as i64));
            ks.bids += 1;
            out.push(Value::Int(rng.range_u64(1, 2000) as i64));
        }
        "PutComment" => {
            out.push(Value::Int(ks.user(rng) as i64));
            out.push(Value::Int(ks.item(rng) as i64));
        }
        "StoreComment" => {
            let author = ks.user(rng);
            ks.comments += 1;
            out.push(Value::Int(author as i64));
            out.push(Value::Int(ks.item(rng) as i64));
        }
        "RegisterItem" => {
            out.push(Value::Int(ks.user(rng) as i64));
            out.push(Value::Int(ks.category(rng) as i64));
            ks.items += 1;
            out.push(Value::Text(format!("newitem{}", ks.items)));
            out.push(Value::Int(rng.range_u64(1, 1000) as i64));
        }
        // Count-only and static pages draw nothing.
        _ => {}
    }
}

/// Builds the concrete work plan of one client request as a
/// [`CompiledRun`] over the interaction's shared program, reusing
/// `params`/`demands` (recycled buffers salvaged from a completed request)
/// so steady-state generation allocates nothing. CPU demands jitter ±20 %
/// around the calibrated mean, modelling data-dependent servlet work.
// jade-audit: allow(hot-panic): the interaction index is sampled from
// the transition matrix, whose dimension equals INTERACTIONS.len() ==
// compiled_plans().len().
pub fn generate_plan_compiled_into(
    interaction: usize,
    ks: &mut KeySpace,
    rng: &mut SimRng,
    mut params: Vec<Value>,
    mut demands: Vec<SimDuration>,
) -> InteractionPlan {
    let t = &INTERACTIONS[interaction];
    let plan = &compiled_plans()[interaction];
    let jitter = |mean_ms: f64, rng: &mut SimRng| ms(mean_ms * (0.8 + 0.4 * rng.f64()));
    params.clear();
    demands.clear();
    fill_params_into(t, ks, rng, &mut params);
    debug_assert_eq!(params.len(), plan.params as usize, "{} slot count", t.name);
    for step in &plan.steps {
        demands.push(jitter(step.demand.as_secs_f64() * 1e3, rng));
    }
    InteractionPlan {
        name: t.name,
        pre_demand: jitter(t.pre_ms, rng),
        sql: SqlProgram::Compiled(CompiledRun {
            plan,
            params,
            demands,
        }),
        post_demand: jitter(t.post_ms, rng),
        response_bytes: t.response_bytes,
    }
}

/// Mix-weighted mean demands `(servlet_ms, db_ms)` — the numbers the
/// capacity model and threshold calibration rest on.
pub fn mean_demands() -> (f64, f64) {
    let total_w: f64 = INTERACTIONS.iter().map(|t| t.weight).sum();
    let mut servlet = 0.0;
    let mut db = 0.0;
    // The compiled steps carry the un-jittered means.
    for (t, plan) in INTERACTIONS.iter().zip(compiled_plans()) {
        let db_ms: f64 = plan
            .steps
            .iter()
            .map(|s| s.demand.as_secs_f64() * 1e3)
            .sum();
        servlet += t.weight * (t.pre_ms + t.post_ms);
        db += t.weight * db_ms;
    }
    (servlet / total_w, db / total_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatasetSpec;

    #[test]
    fn there_are_26_interactions() {
        assert_eq!(INTERACTIONS.len(), 26);
        let mut names: Vec<&str> = INTERACTIONS.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26, "names must be unique");
    }

    #[test]
    fn calibrated_means_match_the_capacity_model() {
        let (servlet, db) = mean_demands();
        // The Figure-5 reproduction's threshold calibration assumes these.
        assert!(
            (10.0..=12.5).contains(&servlet),
            "servlet mean {servlet:.2} ms out of calibrated band"
        );
        assert!(
            (24.5..=28.5).contains(&db),
            "db mean {db:.2} ms out of calibrated band"
        );
    }

    #[test]
    fn mix_is_mostly_reads() {
        let total: f64 = INTERACTIONS.iter().map(|t| t.weight).sum();
        let writes: f64 = INTERACTIONS
            .iter()
            .filter(|t| t.kind == InteractionKind::ReadWrite)
            .map(|t| t.weight)
            .sum();
        let frac = writes / total;
        assert!(
            (0.05..=0.20).contains(&frac),
            "read-write share {frac:.2} should match RUBiS's default mix"
        );
    }

    #[test]
    fn generated_plans_have_concrete_sql() {
        let mix = InteractionMix::bidding();
        let mut rng = SimRng::seed_from_u64(3);
        let mut ks: KeySpace = DatasetSpec::tiny().into();
        let mut saw_sql = false;
        for _ in 0..200 {
            let i = mix.sample_index(&mut rng);
            let t = &INTERACTIONS[i];
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            assert_eq!(plan.name, t.name);
            if !plan.sql.is_empty() {
                saw_sql = true;
            }
            match t.kind {
                InteractionKind::Static => assert!(plan.sql.is_empty()),
                InteractionKind::ReadOnly => assert!(!plan.has_write()),
                InteractionKind::ReadWrite => assert!(plan.has_write()),
            }
        }
        assert!(saw_sql);
    }

    #[test]
    fn inserting_interactions_grow_the_keyspace() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut ks: KeySpace = DatasetSpec::tiny().into();
        let items_before = ks.items;
        let i = INTERACTIONS
            .iter()
            .position(|t| t.name == "RegisterItem")
            .unwrap();
        generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
        assert_eq!(ks.items, items_before + 1);
    }

    #[test]
    fn browsing_mix_never_writes() {
        let mix = InteractionMix::browsing();
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..5_000 {
            let t = mix.sample(&mut rng);
            assert_ne!(t.kind, InteractionKind::ReadWrite, "{} writes", t.name);
        }
        assert_eq!(mix.name(), "browsing");
        assert_eq!(InteractionMix::bidding().name(), "bidding");
    }

    /// Digest of the first `GOLDEN_PLANS` plans of a seeded stream whose
    /// interaction choice is `pick`: per plan the interaction name, pre-
    /// and post-demand, every query's rendered statement and jittered
    /// demand, and the key-space counters after generation.
    fn statement_stream_digest(seed: u64, mut pick: impl FnMut(&mut SimRng) -> usize) -> u64 {
        const GOLDEN_PLANS: usize = 2_000;
        let schema = crate::schema::rubis_schema();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ks: KeySpace = DatasetSpec::small().into();
        let mut d = jade_sim::Digest::new();
        for _ in 0..GOLDEN_PLANS {
            let i = pick(&mut rng);
            let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, Vec::new(), Vec::new());
            let SqlProgram::Compiled(run) = plan.sql;
            d.write_str(plan.name);
            d.write_u64(plan.pre_demand.as_micros());
            d.write_u64(plan.post_demand.as_micros());
            d.write_u64(run.plan.steps.len() as u64);
            for (step, demand) in run.plan.steps.iter().zip(&run.demands) {
                d.write_str(&step.statement(&run.params).render(&schema));
                d.write_u64(demand.as_micros());
            }
            for counter in [ks.users, ks.items, ks.bids, ks.comments] {
                d.write_u64(counter);
            }
        }
        d.finish()
    }

    /// The constants were captured at the last commit that still carried
    /// the statement-template generator, from *its* output (statements
    /// built directly, not through `PlanStep::statement`). They pin what
    /// every committed outcome digest depends on: the RNG draw order, the
    /// key-space mutations, the jitter, and the exact SQL each template
    /// stands for — under the bidding mix, the browsing mix and the Markov
    /// navigation model.
    #[test]
    fn compiled_templates_materialize_to_the_interpreted_statements() {
        for (seed, bidding, browsing, markov) in [
            (
                1,
                0xc735_1c99_5e48_ddfe,
                0xcca8_99ef_be3e_1d75,
                0x8c2e_3509_95a3_ec15,
            ),
            (
                7,
                0xdd53_648a_4da2_4451,
                0x9abf_a3e0_aa4a_9a30,
                0xbe66_2cbf_528e_eb57,
            ),
        ] {
            let mix = InteractionMix::bidding();
            let got = statement_stream_digest(seed, |rng| mix.sample_index(rng));
            assert_eq!(got, bidding, "bidding mix, seed {seed}: {got:#018x}");
            let mix = InteractionMix::browsing();
            let got = statement_stream_digest(seed, |rng| mix.sample_index(rng));
            assert_eq!(got, browsing, "browsing mix, seed {seed}: {got:#018x}");
            let matrix = crate::transitions::TransitionMatrix::bidding_mix();
            let mut state = None;
            let got = statement_stream_digest(seed, |rng| {
                let next = match state {
                    Some(s) => matrix.next(s, rng),
                    None => matrix.home(),
                };
                state = Some(next);
                next
            });
            assert_eq!(got, markov, "markov navigation, seed {seed}: {got:#018x}");
        }
    }

    #[test]
    fn sampling_follows_weights() {
        let mix = InteractionMix::bidding();
        let mut rng = SimRng::seed_from_u64(5);
        let mut search = 0;
        let n = 20_000;
        for _ in 0..n {
            if mix.sample(&mut rng).name == "SearchItemsInCategory" {
                search += 1;
            }
        }
        let frac = search as f64 / n as f64;
        assert!((0.15..=0.21).contains(&frac), "frac {frac}");
    }
}

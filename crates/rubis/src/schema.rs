//! The RUBiS database schema and initial dataset.
//!
//! RUBiS "implements an auction site modeled over eBay" (paper §5.2,
//! reference \[1\]): users place bids on items organized in categories and
//! regions, leave comments, and buy items outright. The schema here is the
//! subset the workload exercises.

use jade_sim::SimRng;
use jade_tiers::sql::{ColId, Schema, Statement, TableId, Value};
use jade_tiers::storage::Database;
use std::sync::{Arc, OnceLock};

/// Table names of the RUBiS schema.
pub const TABLES: &[&str] = &[
    "users",
    "items",
    "categories",
    "regions",
    "bids",
    "comments",
    "buy_now",
];

/// The RUBiS schema, built once per process: tables, columns and the
/// secondary indexes covering every equality filter the 26 interactions
/// issue (`items.category`/`items.seller`, `bids.item`/`bids.bidder`,
/// `comments.author`, `users.region`).
pub fn rubis_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::builder()
            .table("users", &["nickname", "region", "rating"])
            .table(
                "items",
                &["name", "seller", "category", "price", "quantity"],
            )
            .table("categories", &["name"])
            .table("regions", &["name"])
            .table("bids", &["item", "bidder", "amount"])
            .table("comments", &["item", "author", "text"])
            .table("buy_now", &["item", "buyer"])
            .index("users", "region")
            .index("items", "category")
            .index("items", "seller")
            .index("bids", "item")
            .index("bids", "bidder")
            .index("comments", "author")
            .build()
    }))
}

/// Pre-resolved identifiers of every RUBiS table and column: names are
/// interned exactly once per process, so statement preparation performs
/// zero string hashing.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct RubisIds {
    pub users: TableId,
    pub items: TableId,
    pub categories: TableId,
    pub regions: TableId,
    pub bids: TableId,
    pub comments: TableId,
    pub buy_now: TableId,
    pub user_nickname: ColId,
    pub user_region: ColId,
    pub user_rating: ColId,
    pub item_name: ColId,
    pub item_seller: ColId,
    pub item_category: ColId,
    pub item_price: ColId,
    pub item_quantity: ColId,
    pub category_name: ColId,
    pub region_name: ColId,
    pub bid_item: ColId,
    pub bid_bidder: ColId,
    pub bid_amount: ColId,
    pub comment_item: ColId,
    pub comment_author: ColId,
    pub comment_text: ColId,
    pub buy_now_item: ColId,
    pub buy_now_buyer: ColId,
}

/// The process-wide [`RubisIds`], resolved once against [`rubis_schema`].
pub fn rubis_ids() -> &'static RubisIds {
    static IDS: OnceLock<RubisIds> = OnceLock::new();
    IDS.get_or_init(|| {
        let s = rubis_schema();
        RubisIds {
            users: s.must_table("users"),
            items: s.must_table("items"),
            categories: s.must_table("categories"),
            regions: s.must_table("regions"),
            bids: s.must_table("bids"),
            comments: s.must_table("comments"),
            buy_now: s.must_table("buy_now"),
            user_nickname: s.must_col("users", "nickname"),
            user_region: s.must_col("users", "region"),
            user_rating: s.must_col("users", "rating"),
            item_name: s.must_col("items", "name"),
            item_seller: s.must_col("items", "seller"),
            item_category: s.must_col("items", "category"),
            item_price: s.must_col("items", "price"),
            item_quantity: s.must_col("items", "quantity"),
            category_name: s.must_col("categories", "name"),
            region_name: s.must_col("regions", "name"),
            bid_item: s.must_col("bids", "item"),
            bid_bidder: s.must_col("bids", "bidder"),
            bid_amount: s.must_col("bids", "amount"),
            comment_item: s.must_col("comments", "item"),
            comment_author: s.must_col("comments", "author"),
            comment_text: s.must_col("comments", "text"),
            buy_now_item: s.must_col("buy_now", "item"),
            buy_now_buyer: s.must_col("buy_now", "buyer"),
        }
    })
}

/// Sizing of the initial dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Registered users.
    pub users: u64,
    /// Items up for auction.
    pub items: u64,
    /// Item categories (RUBiS ships 20).
    pub categories: u64,
    /// Geographic regions (RUBiS ships 62).
    pub regions: u64,
    /// Pre-existing bids.
    pub bids: u64,
    /// Pre-existing comments.
    pub comments: u64,
}

impl DatasetSpec {
    /// A small but structurally complete dataset for experiments; large
    /// enough that reads hit real rows, small enough to keep runs fast.
    pub fn small() -> Self {
        DatasetSpec {
            users: 300,
            items: 1000,
            categories: 20,
            regions: 62,
            bids: 2000,
            comments: 500,
        }
    }

    /// A tiny dataset for unit tests.
    pub fn tiny() -> Self {
        DatasetSpec {
            users: 10,
            items: 30,
            categories: 3,
            regions: 4,
            bids: 50,
            comments: 10,
        }
    }
}

/// Key-space bookkeeping the interaction generator draws random keys from.
/// Grows as write interactions insert rows.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    /// Current number of user rows.
    pub users: u64,
    /// Current number of item rows.
    pub items: u64,
    /// Number of categories (static).
    pub categories: u64,
    /// Number of regions (static).
    pub regions: u64,
    /// Current number of bid rows.
    pub bids: u64,
    /// Current number of comment rows.
    pub comments: u64,
}

impl From<DatasetSpec> for KeySpace {
    fn from(s: DatasetSpec) -> Self {
        KeySpace {
            users: s.users,
            items: s.items,
            categories: s.categories,
            regions: s.regions,
            bids: s.bids,
            comments: s.comments,
        }
    }
}

impl KeySpace {
    /// Random existing key of a table sized `n` (0 when empty — selects
    /// will simply miss, like a stale bookmark).
    fn pick(rng: &mut SimRng, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            rng.range_u64(0, n - 1)
        }
    }

    /// Random user key.
    pub fn user(&self, rng: &mut SimRng) -> u64 {
        Self::pick(rng, self.users)
    }
    /// Random item key.
    pub fn item(&self, rng: &mut SimRng) -> u64 {
        Self::pick(rng, self.items)
    }
    /// Random category key.
    pub fn category(&self, rng: &mut SimRng) -> u64 {
        Self::pick(rng, self.categories)
    }
    /// Random region key.
    pub fn region(&self, rng: &mut SimRng) -> u64 {
        Self::pick(rng, self.regions)
    }
}

/// Statements that create the schema.
pub fn schema_statements() -> Vec<Statement> {
    let schema = rubis_schema();
    TABLES.iter().map(|t| schema.create_table(t)).collect()
}

/// Statements that populate the initial dataset: the `CREATE TABLE`s,
/// then one `INSERT` per row [`load_dataset`] loads.
#[cold]
pub fn dataset_statements(spec: DatasetSpec, rng: &mut SimRng) -> Vec<Statement> {
    let mut out = schema_statements();
    dataset_rows(spec, rng, |table, row| {
        out.push(Statement::Insert { table, row })
    });
    out
}

/// The initial dataset's database, its rows appended directly — the one
/// executing [`dataset_statements`] builds, without the statements.
#[cold]
pub fn load_dataset(spec: DatasetSpec, rng: &mut SimRng) -> Database {
    let mut db = Database::new(rubis_schema());
    for stmt in schema_statements() {
        db.execute(&stmt).expect("a RUBiS table is in the catalog");
    }
    dataset_rows(spec, rng, |table, row| {
        db.load_row(table, row)
            .expect("a dataset row fits its table");
    });
    db
}

/// Hands every row of the initial dataset to `sink`. Deterministic given
/// the RNG seed, so every replica and every run sees the same data. Rows
/// are built in each table's fixed column layout — no name lookups.
#[cold]
fn dataset_rows(spec: DatasetSpec, rng: &mut SimRng, mut sink: impl FnMut(TableId, Vec<Value>)) {
    let ids = rubis_ids();
    let mut int = |lo: u64, hi: u64| Value::Int(rng.range_u64(lo, hi) as i64);
    for i in 0..spec.regions {
        sink(ids.regions, vec![Value::Text(format!("region-{i}"))]);
    }
    for i in 0..spec.categories {
        sink(ids.categories, vec![Value::Text(format!("category-{i}"))]);
    }
    for i in 0..spec.users {
        // Layout: [nickname, region, rating].
        let nickname = Value::Text(format!("user{i}"));
        let row = vec![nickname, int(0, spec.regions - 1), int(0, 100)];
        sink(ids.users, row);
    }
    for i in 0..spec.items {
        // Layout: [name, seller, category, price, quantity].
        let name = Value::Text(format!("item{i}"));
        let (seller, category) = (int(0, spec.users - 1), int(0, spec.categories - 1));
        let row = vec![name, seller, category, int(1, 1000), int(1, 10)];
        sink(ids.items, row);
    }
    for _ in 0..spec.bids {
        // Layout: [item, bidder, amount].
        let (item, bidder) = (int(0, spec.items - 1), int(0, spec.users - 1));
        sink(ids.bids, vec![item, bidder, int(1, 2000)]);
    }
    for _ in 0..spec.comments {
        // Layout: [item, author, text].
        let (item, author) = (int(0, spec.items - 1), int(0, spec.users - 1));
        let text = Value::Text("nice doing business".into());
        sink(ids.comments, vec![item, author, text]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spec` loaded row by row with the RNG seeded at `seed`.
    fn loaded(spec: DatasetSpec, seed: u64) -> Database {
        load_dataset(spec, &mut SimRng::seed_from_u64(seed))
    }

    #[test]
    fn dataset_loads_and_matches_spec() {
        let spec = DatasetSpec::tiny();
        let db = loaded(spec, 1);
        assert_eq!(db.get_table("users").unwrap().len() as u64, spec.users);
        assert_eq!(db.get_table("items").unwrap().len() as u64, spec.items);
        assert_eq!(db.get_table("bids").unwrap().len() as u64, spec.bids);
        for name in TABLES {
            assert!(db.get_table(name).is_some(), "{name} not created");
        }
    }

    #[test]
    fn dataset_is_deterministic() {
        let spec = DatasetSpec::tiny();
        assert_eq!(loaded(spec, 9).digest(), loaded(spec, 9).digest());
    }

    /// The direct load and the statement dump are two sinks of one row
    /// generator: they build equal databases, index postings included,
    /// and leave the RNG at the same draw.
    #[test]
    fn load_dataset_equals_replaying_dataset_statements() {
        for spec in [DatasetSpec::tiny(), DatasetSpec::small()] {
            for seed in [1, 7] {
                let mut rng = SimRng::seed_from_u64(seed);
                let mut replayed = Database::new(rubis_schema());
                for stmt in dataset_statements(spec, &mut rng) {
                    replayed.execute(&stmt).unwrap();
                }
                let mut load_rng = SimRng::seed_from_u64(seed);
                let direct = load_dataset(spec, &mut load_rng);
                assert!(direct == replayed, "{spec:?} seed {seed}");
                assert_eq!(direct.digest(), replayed.digest());
                assert_eq!(load_rng.next_u64(), rng.next_u64());
            }
        }
    }

    #[test]
    fn keyspace_picks_in_range() {
        let ks: KeySpace = DatasetSpec::tiny().into();
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(ks.user(&mut rng) < ks.users);
            assert!(ks.item(&mut rng) < ks.items);
            assert!(ks.category(&mut rng) < ks.categories);
            assert!(ks.region(&mut rng) < ks.regions);
        }
    }
}

//! # jade-tiers — the J2EE legacy layer
//!
//! Everything below Jade's management plane, rebuilt from scratch:
//!
//! * [`apache`], [`tomcat`], [`mysql`] — the tier server processes; MySQL
//!   carries an actual storage engine ([`storage`]) executing a mini-SQL
//!   dialect ([`sql`]),
//! * [`cjdbc`] — the C-JDBC database clustering middleware (RAIDb-1 full
//!   mirroring) with its [`recovery`] log and state reconciliation
//!   (paper §4.1),
//! * [`balancer`] — PLB / L4-switch HTTP load balancing (Random,
//!   Round-Robin),
//! * [`config`] — the legacy configuration artifacts (`httpd.conf`,
//!   `worker.properties`, …) that the wrapper rewrites,
//! * [`legacy`] — the aggregate [`legacy::LegacyLayer`]: the environment
//!   that the Fractal wrapper reflects onto,
//! * [`wrappers`] — [`ServerWrapper`], the one Fractal wrapper of every
//!   legacy server, with a per-kind arm for each reflection (paper §3.2),
//! * [`request`] — interaction plans flowing client → servlet → database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apache;
pub mod balancer;
pub mod cjdbc;
pub mod config;
pub mod legacy;
pub mod mysql;
pub mod plan;
pub mod recovery;
pub mod request;
pub mod server;
pub mod sql;
pub mod storage;
pub mod tomcat;
pub mod wrappers;

pub use apache::ApacheServer;
pub use balancer::{BalancePolicy, BalancerError, HttpBalancer};
pub use cjdbc::{BackendStatus, CjdbcController, CjdbcError, ReadPolicy};
pub use legacy::{LegacyError, LegacyEvent, LegacyLayer, LegacyServer};
pub use mysql::MysqlServer;
pub use plan::{CompiledPlan, Operand, PlanStep, StepOp};
pub use recovery::RecoveryLog;
pub use request::{CompiledRun, DbQuery, InteractionPlan, RequestId, SqlProgram};
pub use server::{ServerId, ServerProcess, ServerState, Tier};
pub use sql::{
    ColId, ExecSummary, QueryResult, Schema, SchemaBuilder, SharedRow, SqlError, Statement,
    TableId, Value,
};
pub use storage::{Database, Table};
pub use tomcat::TomcatServer;
pub use wrappers::ServerWrapper;

//! The MySQL database server (database tier): process state around one
//! [`Database`] replica. The C-JDBC dispatch path in [`crate::legacy`]
//! drives the replica's storage engine directly.

use crate::server::{ServerId, ServerProcess, Tier};
use crate::sql::Schema;
use crate::storage::Database;
use jade_cluster::NodeId;

/// A MySQL process: process state plus an actual storage engine holding a
/// full copy of the database (full mirroring, paper §4.1).
#[derive(Clone, Debug)]
pub struct MysqlServer {
    /// Common process state.
    pub process: ServerProcess,
    /// SQL listen port (`port` attribute, reflected in `my.cnf`).
    pub port: u16,
    /// The replica's database contents.
    pub db: Database,
}

impl MysqlServer {
    /// Creates a stopped MySQL replica with an empty database on `node`
    /// (the legacy layer restores the base image into `db` on creation).
    pub fn new(id: ServerId, name: &str, node: NodeId) -> Self {
        MysqlServer {
            process: ServerProcess::new(id, name, node, Tier::Database),
            port: 3306,
            db: Database::new(Schema::empty()),
        }
    }

    /// Content digest (replica-convergence checks).
    pub fn digest(&self) -> u64 {
        self.db.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::{QueryResult, Value};

    #[test]
    fn executes_against_local_storage() {
        let schema = Schema::builder().table("users", &["name"]).build();
        let mut m = MysqlServer::new(ServerId(2), "MySQL1", NodeId(3));
        m.db = Database::new(schema.clone());
        m.db.execute(&schema.create_table("users")).unwrap();
        m.db.execute(&schema.insert("users", &[("name", Value::from("eve"))]))
            .unwrap();
        assert_eq!(m.db.total_rows(), 1);
        assert_eq!(m.process.tier, Tier::Database);
        let QueryResult::Rows(rows) = m.db.execute(&schema.select_by_key("users", 0)).unwrap()
        else {
            panic!("a select returns rows");
        };
        assert_eq!(rows[0].0, 0);
        assert_eq!(m.digest(), m.db.digest());
    }
}

//! The catalog: a named collection of base tables.
//!
//! The executor resolves `Scan` nodes against a catalog; the maintenance
//! engine reads *pre-update* base-table states from it while propagating
//! deltas, then commits the deltas at the end of a maintenance cycle.

use crate::delta::Delta;
use crate::error::{Result, StorageError};
use crate::fault::{FaultInjector, FaultSite};
use crate::schema::SchemaRef;
use crate::table::Table;
use std::collections::BTreeMap;

/// A named collection of tables.
///
/// The catalog also carries the [`FaultInjector`] handle for the whole
/// engine instance: the exec providers and the maintenance layer consult
/// `catalog.fault_injector()` at their injection sites, so attaching one
/// injector to the catalog arms every layer at once. The default injector
/// is disabled and free.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    fault: FaultInjector,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table under a name.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StorageError::DuplicateTable(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Replace a table (or insert it if absent).
    pub fn replace(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Remove a table, returning it.
    pub fn deregister(&mut self, name: &str) -> Result<Table> {
        self.tables
            .remove(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Schema of a table.
    pub fn schema(&self, name: &str) -> Result<SchemaRef> {
        Ok(self.table(name)?.schema().clone())
    }

    /// Apply a signed delta to a base table (commit step of maintenance).
    pub fn apply_delta(&mut self, name: &str, delta: &Delta) -> Result<()> {
        self.fault.check(FaultSite::Commit, name)?;
        self.table_mut(name)?
            .apply_delta(delta)
            .map_err(|e| e.in_table(name))
    }

    /// Would applying `delta` to table `name` succeed? The validate step of
    /// the epoch commit: the `Commit` fault site fires here, then
    /// [`Table::check_delta`] answers in O(|Δ|) — nothing is copied and
    /// nothing mutated. Once every table of a batch has passed, the deltas
    /// go onto the live tables in place (`table_mut(name)?.apply_delta`)
    /// and cannot fail.
    pub fn check_delta(&self, name: &str, delta: &Delta) -> Result<()> {
        self.fault.check(FaultSite::Commit, name)?;
        self.table(name)?
            .check_delta(delta)
            .map_err(|e| e.in_table(name))
    }

    /// The post-delta state of a base table as a **copy**: validate
    /// ([`Catalog::check_delta`]), clone the table, apply the delta to the
    /// clone. O(|table|) — the epoch commit does not come through here; it
    /// stays as the reference the in-place path is tested against.
    pub fn stage_delta(&self, name: &str, delta: &Delta) -> Result<Table> {
        self.check_delta(name, delta)?;
        let mut staged = self.table(name)?.clone();
        staged.apply_delta(delta)?;
        Ok(staged)
    }

    /// Attach a fault-injection schedule (chaos testing). Clones of the
    /// catalog made *after* this call share the injector.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = injector;
    }

    /// The fault-injection handle (disabled by default).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// True iff a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Arc::new(Schema::from_pairs_keyed(&[("id", DataType::Int)], &["id"]).unwrap());
        Table::from_rows(schema, vec![row![1], row![2]]).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        assert_eq!(c.table("t").unwrap().len(), 2);
        assert!(c.contains("t"));
        assert_eq!(c.table_names(), vec!["t"]);
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        assert!(matches!(
            c.register("t", table()),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn unknown_table_fails() {
        let c = Catalog::new();
        assert!(matches!(c.table("x"), Err(StorageError::UnknownTable(_))));
    }

    #[test]
    fn apply_delta_commits() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        let d = Delta::from_deletes(vec![row![1]]);
        c.apply_delta("t", &d).unwrap();
        assert_eq!(c.table("t").unwrap().len(), 1);
    }

    #[test]
    fn stage_delta_leaves_catalog_untouched() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        let staged = c
            .stage_delta("t", &Delta::from_inserts(vec![row![3]]))
            .unwrap();
        assert_eq!(staged.len(), 3);
        assert_eq!(c.table("t").unwrap().len(), 2, "staging must not mutate");
        c.replace("t", staged);
        assert_eq!(c.table("t").unwrap().len(), 3);
    }

    #[test]
    fn stage_delta_surfaces_key_violations_without_mutation() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        // Inserting an existing key twice violates the declared key.
        let bad = Delta::from_inserts(vec![row![1]]);
        assert!(c.stage_delta("t", &bad).is_err());
        assert_eq!(c.table("t").unwrap().len(), 2);
    }

    #[test]
    fn check_delta_predicts_apply_and_names_the_table() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        c.check_delta("t", &Delta::from_inserts(vec![row![3]]))
            .unwrap();
        // Inserting an existing key is the violation `apply_delta` would
        // raise, reported under the table's registered name.
        let bad = Delta::from_inserts(vec![row![1]]);
        let predicted = c.check_delta("t", &bad).unwrap_err();
        assert!(
            matches!(&predicted, StorageError::KeyViolation { table, .. } if table == "t"),
            "{predicted}"
        );
        assert_eq!(c.apply_delta("t", &bad).unwrap_err(), predicted);
        assert_eq!(c.table("t").unwrap().len(), 2);
    }

    #[test]
    fn injected_commit_fault_surfaces_as_error() {
        use crate::fault::{FaultInjector, FaultSite};
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        c.set_fault_injector(
            FaultInjector::seeded(3)
                .with_site(FaultSite::Commit, 1.0, 0.0)
                .with_budget(1),
        );
        let d = Delta::from_inserts(vec![row![9]]);
        let err = c.stage_delta("t", &d).unwrap_err();
        assert!(err.is_transient());
        // Budget spent: the retry goes through.
        assert!(c.stage_delta("t", &d).is_ok());
    }

    #[test]
    fn deregister_returns_table() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        let t = c.deregister("t").unwrap();
        assert_eq!(t.len(), 2);
        assert!(!c.contains("t"));
    }
}

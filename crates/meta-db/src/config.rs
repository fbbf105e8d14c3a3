//! Configurations: lightweight sets of database addresses.
//!
//! "The third type of meta-data objects are Configurations, which consist of
//! a set of database addresses, referencing OIDs and Links. This
//! implementation results in light weight configuration objects, which can be
//! used to store results of volume queries. … Configurations can be used to
//! save the state of the design hierarchy in a snapshot at each step of the
//! design cycle. They can be built by traversing a hierarchy while following
//! certain rules, or can be made as a result of a query." — Section 2.

use std::collections::BTreeSet;

use crate::db::{MetaDb, OidId};
use crate::error::MetaError;
use crate::link::{Direction, LinkClass, LinkId};
use crate::oid::Oid;

/// The traversal rule used when snapshotting a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRule {
    /// Follow only `use` links (hierarchy within a view), downwards.
    Hierarchy,
    /// Follow every link downwards (hierarchy plus derivations).
    Closure,
}

/// A lightweight set of database addresses referencing OIDs and Links.
///
/// A configuration does **not** keep the referenced objects alive: after
/// deletions, some addresses may dangle. [`Configuration::dangling`] counts
/// them and [`Configuration::resolve`] either tolerates or rejects them, so a
/// snapshot taken early in the design cycle degrades gracefully — exactly the
/// light-weight behaviour the paper claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    name: String,
    oids: Vec<OidId>,
    links: Vec<LinkId>,
}

impl Configuration {
    /// Creates an empty configuration.
    pub fn new(name: impl Into<String>) -> Self {
        Configuration {
            name: name.into(),
            oids: Vec::new(),
            links: Vec::new(),
        }
    }

    /// The configuration's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of OID addresses held.
    pub fn oid_count(&self) -> usize {
        self.oids.len()
    }

    /// Number of link addresses held.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether the configuration holds no addresses at all.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty() && self.links.is_empty()
    }

    /// The stored OID addresses.
    pub fn oid_ids(&self) -> &[OidId] {
        &self.oids
    }

    /// The stored link addresses.
    pub fn link_ids(&self) -> &[LinkId] {
        &self.links
    }

    /// Whether the configuration references `id`.
    pub fn contains(&self, id: OidId) -> bool {
        self.oids.contains(&id)
    }

    /// Adds an OID address (deduplicated).
    pub fn push_oid(&mut self, id: OidId) {
        if !self.oids.contains(&id) {
            self.oids.push(id);
        }
    }

    /// Adds a link address (deduplicated).
    pub fn push_link(&mut self, id: LinkId) {
        if !self.links.contains(&id) {
            self.links.push(id);
        }
    }

    /// Counts addresses that no longer resolve in `db`.
    pub fn dangling(&self, db: &MetaDb) -> usize {
        let dead_oids = self.oids.iter().filter(|&&id| !db.is_live(id)).count();
        let dead_links = self
            .links
            .iter()
            .filter(|&&id| db.link(id).is_err())
            .count();
        dead_oids + dead_links
    }

    /// Resolves every live OID address into its triplet.
    ///
    /// # Errors
    ///
    /// With `strict`, returns [`MetaError::StaleConfiguration`] if any address
    /// dangles; otherwise dangling addresses are silently skipped.
    pub fn resolve(&self, db: &MetaDb, strict: bool) -> Result<Vec<Oid>, MetaError> {
        let dangling = self.dangling(db);
        if strict && dangling > 0 {
            return Err(MetaError::StaleConfiguration {
                name: self.name.clone(),
                dangling,
            });
        }
        Ok(self
            .oids
            .iter()
            .filter_map(|&id| db.oid(id).ok().cloned())
            .collect())
    }

    /// Addresses present in `self` but not in `other` — what changed between
    /// two snapshots of the design cycle.
    pub fn diff(&self, other: &Configuration) -> Vec<OidId> {
        let theirs: BTreeSet<OidId> = other.oids.iter().copied().collect();
        self.oids
            .iter()
            .copied()
            .filter(|id| !theirs.contains(id))
            .collect()
    }
}

/// Builds [`Configuration`]s by hierarchy traversal or by query.
///
/// # Example
///
/// ```
/// use damocles_meta::{MetaDb, Oid, LinkClass, LinkKind, ConfigurationBuilder, SnapshotRule};
///
/// # fn main() -> Result<(), damocles_meta::MetaError> {
/// let mut db = MetaDb::new();
/// let cpu = db.create_oid(Oid::new("cpu", "SCHEMA", 4))?;
/// let reg = db.create_oid(Oid::new("reg", "SCHEMA", 2))?;
/// db.add_link(cpu, reg, LinkClass::Use, LinkKind::Composition)?;
///
/// let snap = ConfigurationBuilder::new(&db)
///     .traverse(cpu, SnapshotRule::Hierarchy)
///     .build("step-1");
/// assert_eq!(snap.oid_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConfigurationBuilder<'db> {
    db: &'db MetaDb,
    oids: Vec<OidId>,
    links: Vec<LinkId>,
    seen: BTreeSet<OidId>,
}

impl<'db> ConfigurationBuilder<'db> {
    /// Starts building against `db`.
    pub fn new(db: &'db MetaDb) -> Self {
        ConfigurationBuilder {
            db,
            oids: Vec::new(),
            links: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Adds `root` and everything reachable downwards per `rule`.
    pub fn traverse(mut self, root: OidId, rule: SnapshotRule) -> Self {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !self.db.is_live(id) || !self.seen.insert(id) {
                continue;
            }
            self.oids.push(id);
            let Ok(links) = self.db.links_of(id) else {
                continue;
            };
            for (link_id, link) in links {
                if rule == SnapshotRule::Hierarchy && link.class != LinkClass::Use {
                    continue;
                }
                if let Some(next) = link.traverse_from(id, Direction::Down) {
                    if !self.links.contains(&link_id) {
                        self.links.push(link_id);
                    }
                    stack.push(next);
                }
            }
        }
        self
    }

    /// Adds every live OID matching `predicate` — "the result of a query, in
    /// which case [the configuration] will be a non-hierarchical set of data".
    pub fn query(mut self, mut predicate: impl FnMut(&crate::db::OidEntry) -> bool) -> Self {
        for (id, entry) in self.db.iter_oids() {
            if predicate(entry) && self.seen.insert(id) {
                self.oids.push(id);
            }
        }
        self
    }

    /// Finalizes the configuration under `name`.
    pub fn build(self, name: impl Into<String>) -> Configuration {
        Configuration {
            name: name.into(),
            oids: self.oids,
            links: self.links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;
    use crate::property::Value;

    /// cpu(SCHEMA) --use--> reg(SCHEMA); cpu --derive--> net(netlist)
    fn sample() -> (MetaDb, OidId, OidId, OidId) {
        let mut db = MetaDb::new();
        let cpu = db.create_oid(Oid::new("cpu", "SCHEMA", 4)).unwrap();
        let reg = db.create_oid(Oid::new("reg", "SCHEMA", 2)).unwrap();
        let net = db.create_oid(Oid::new("cpu", "netlist", 1)).unwrap();
        db.add_link(cpu, reg, LinkClass::Use, LinkKind::Composition)
            .unwrap();
        db.add_link(cpu, net, LinkClass::Derive, LinkKind::DeriveFrom)
            .unwrap();
        (db, cpu, reg, net)
    }

    #[test]
    fn hierarchy_rule_follows_only_use_links() {
        let (db, cpu, reg, net) = sample();
        let snap = ConfigurationBuilder::new(&db)
            .traverse(cpu, SnapshotRule::Hierarchy)
            .build("h");
        assert!(snap.contains(cpu));
        assert!(snap.contains(reg));
        assert!(!snap.contains(net));
        assert_eq!(snap.link_count(), 1);
    }

    #[test]
    fn closure_rule_follows_all_links() {
        let (db, cpu, _reg, net) = sample();
        let snap = ConfigurationBuilder::new(&db)
            .traverse(cpu, SnapshotRule::Closure)
            .build("c");
        assert_eq!(snap.oid_count(), 3);
        assert!(snap.contains(net));
    }

    #[test]
    fn query_builds_non_hierarchical_set() {
        let (mut db, cpu, _reg, _net) = sample();
        db.set_prop(cpu, "uptodate", Value::Bool(false)).unwrap();
        let snap = ConfigurationBuilder::new(&db)
            .query(|entry| entry.props.get("uptodate") == Some(&Value::Bool(false)))
            .build("stale");
        assert_eq!(snap.oid_count(), 1);
        assert!(snap.contains(cpu));
        assert_eq!(snap.link_count(), 0);
    }

    #[test]
    fn dangling_addresses_detected_after_delete() {
        let (mut db, cpu, reg, _net) = sample();
        let snap = ConfigurationBuilder::new(&db)
            .traverse(cpu, SnapshotRule::Hierarchy)
            .build("snap");
        db.delete_oid(reg).unwrap();
        // reg's address and the cpu->reg use link both dangle now.
        assert_eq!(snap.dangling(&db), 2);
        let lenient = snap.resolve(&db, false).unwrap();
        assert_eq!(lenient.len(), 1);
        let strict = snap.resolve(&db, true);
        assert!(matches!(
            strict,
            Err(MetaError::StaleConfiguration { dangling: 2, .. })
        ));
    }

    #[test]
    fn diff_between_snapshots() {
        let (mut db, cpu, _reg, _net) = sample();
        let before = ConfigurationBuilder::new(&db)
            .traverse(cpu, SnapshotRule::Closure)
            .build("before");
        let extra = db.create_oid(Oid::new("cpu", "layout", 1)).unwrap();
        db.add_link(cpu, extra, LinkClass::Derive, LinkKind::Equivalence)
            .unwrap();
        let after = ConfigurationBuilder::new(&db)
            .traverse(cpu, SnapshotRule::Closure)
            .build("after");
        assert_eq!(after.diff(&before), vec![extra]);
        assert!(before.diff(&after).is_empty());
    }

    #[test]
    fn cyclic_links_terminate() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.add_link(a, b, LinkClass::Use, LinkKind::Composition)
            .unwrap();
        db.add_link(b, a, LinkClass::Use, LinkKind::Composition)
            .unwrap();
        let snap = ConfigurationBuilder::new(&db)
            .traverse(a, SnapshotRule::Hierarchy)
            .build("cycle");
        assert_eq!(snap.oid_count(), 2);
    }

    #[test]
    fn push_deduplicates() {
        let (db, cpu, _, _) = sample();
        let _ = db;
        let mut cfg = Configuration::new("manual");
        cfg.push_oid(cpu);
        cfg.push_oid(cpu);
        assert_eq!(cfg.oid_count(), 1);
    }
}

//! Links: the relationship objects of the meta-database.
//!
//! "The relationship between the design objects are represented in the
//! meta-database by Links. … DAMOCLES distinguishes between two classes of
//! Links: *use* links which represent hierarchy and *derive* links which
//! represent other relationships. … Each Link has a PROPAGATE property which
//! enumerates events which are allowed to propagate through it." — Section 2.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use crate::arena::ArenaIndex;
use crate::db::OidId;
use crate::intern::{Sym, SymSet};
use crate::property::PropertyMap;

/// Stable database address of a [`Link`].
pub type LinkId = ArenaIndex<Link>;

/// The two link classes of Section 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkClass {
    /// Hierarchy within a view: parent and child are the same view type
    /// (e.g. `<cpu,SCHEMA,4>` uses `<reg,SCHEMA,2>`).
    Use,
    /// Everything else: derivation, equivalence, depend-on…
    Derive,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkClass::Use => "use",
            LinkClass::Derive => "derive",
        })
    }
}

/// The TYPE property of derive links.
///
/// "A link's type is not directly used by the BluePrint. Link types are, in a
/// way, like comments which help the user in visualizing the data flow" —
/// Section 3.2. We still model the four common types the paper enumerates,
/// plus free-form ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkKind {
    /// Hierarchical decomposition of data.
    Composition,
    /// Ties alternative representations together (the "equivalence plane").
    Equivalence,
    /// Dependence on a tool version or process file.
    DependOn,
    /// A data view derived from another view.
    DeriveFrom,
    /// Project-specific link type.
    Other(String),
}

impl LinkKind {
    /// The canonical keyword used in BluePrint sources.
    pub fn as_keyword(&self) -> &str {
        match self {
            LinkKind::Composition => "composition",
            LinkKind::Equivalence => "equivalence",
            LinkKind::DependOn => "depend_on",
            LinkKind::DeriveFrom => "derive_from",
            LinkKind::Other(s) => s,
        }
    }
}

impl FromStr for LinkKind {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "composition" => LinkKind::Composition,
            "equivalence" => LinkKind::Equivalence,
            "depend_on" => LinkKind::DependOn,
            "derive_from" | "derived" => LinkKind::DeriveFrom,
            other => LinkKind::Other(other.to_string()),
        })
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_keyword())
    }
}

/// Propagation direction of an event through links.
///
/// "The events … can be propagated in either direction through the Link" —
/// Section 2. A link is directed from its *from* end (source / hierarchical
/// parent) to its *to* end (derived object / hierarchical child):
///
/// * [`Direction::Down`] travels `from → to` (source to derived, parent to
///   child) — the direction of `post outofdate down` invalidating derived
///   data.
/// * [`Direction::Up`] travels `to → from` — the direction of
///   `post lvs up` from a layout back to its schematic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From source/parent towards derived/child objects.
    Down,
    /// From derived/child objects back towards their source/parent.
    Up,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Down => Direction::Up,
            Direction::Up => Direction::Down,
        }
    }

    /// The keyword used in event messages (`up` / `down`).
    pub fn as_keyword(self) -> &'static str {
        match self {
            Direction::Down => "down",
            Direction::Up => "up",
        }
    }
}

impl FromStr for Direction {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "up" => Ok(Direction::Up),
            "down" => Ok(Direction::Down),
            other => Err(format!("direction must be `up` or `down`, got `{other}`")),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_keyword())
    }
}

/// A relationship object between two OIDs.
///
/// The PROPAGATE property (`propagates`) and the TYPE property (`kind`) are
/// first-class because the run-time engine consults them on every traversal;
/// arbitrary additional annotation lives in `props`. The PROPAGATE set is
/// held in two synchronized forms — event-name strings for persistence and
/// display, and a [`SymSet`] bitset over [`MetaDb`](crate::MetaDb)'s interned
/// event universe for the hot propagation filter — which is why the fields
/// are private and all mutation goes through
/// [`MetaDb::allow_event`](crate::MetaDb::allow_event) /
/// [`MetaDb::add_link_with`](crate::MetaDb::add_link_with).
#[derive(Debug, Clone)]
pub struct Link {
    /// Source / hierarchical parent end.
    pub from: OidId,
    /// Derived / hierarchical child end.
    pub to: OidId,
    /// Use (hierarchy) or derive (everything else).
    pub class: LinkClass,
    /// The TYPE property ("like comments", not interpreted by the engine).
    pub kind: LinkKind,
    /// The PROPAGATE property: names of events allowed through this link.
    pub(crate) propagates: BTreeSet<String>,
    /// The PROPAGATE property as a bitset over the owning database's
    /// interned event universe. Kept in lock-step with `propagates`.
    pub(crate) propagates_syms: SymSet,
    /// Free-form property/value annotation.
    pub props: PropertyMap,
}

impl Link {
    /// Creates a link with an empty PROPAGATE set and no annotation.
    pub fn new(from: OidId, to: OidId, class: LinkClass, kind: LinkKind) -> Self {
        Link {
            from,
            to,
            class,
            kind,
            propagates: BTreeSet::new(),
            propagates_syms: SymSet::new(),
            props: PropertyMap::new(),
        }
    }

    /// The PROPAGATE set: names of events allowed through this link.
    pub fn propagates(&self) -> &BTreeSet<String> {
        &self.propagates
    }

    /// Whether `event` may travel through this link at all.
    pub fn allows(&self, event: &str) -> bool {
        self.propagates.contains(event)
    }

    /// Bitset form of [`Link::allows`] over the owning database's interned
    /// event universe: one word test, no string comparison. `sym` must come
    /// from the same database's interner (see
    /// [`MetaDb::event_sym`](crate::MetaDb::event_sym)).
    pub fn allows_sym(&self, sym: Sym) -> bool {
        self.propagates_syms.contains(sym)
    }

    /// The OID reached when traversing this link in `dir`, starting from
    /// `origin` — or `None` if the link does not leave `origin` in that
    /// direction.
    ///
    /// Down leaves the `from` end towards `to`; up leaves the `to` end
    /// towards `from`.
    pub fn traverse_from(&self, origin: OidId, dir: Direction) -> Option<OidId> {
        match dir {
            Direction::Down if self.from == origin => Some(self.to),
            Direction::Up if self.to == origin => Some(self.from),
            _ => None,
        }
    }

    /// The end opposite to `origin`, regardless of direction, if `origin` is
    /// an end of this link.
    pub fn other_end(&self, origin: OidId) -> Option<OidId> {
        if self.from == origin {
            Some(self.to)
        } else if self.to == origin {
            Some(self.from)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::MetaDb;
    use crate::oid::Oid;

    fn two_oids() -> (MetaDb, OidId, OidId) {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let b = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        (db, a, b)
    }

    #[test]
    fn traverse_down_follows_from_to() {
        let (_db, a, b) = two_oids();
        let link = Link::new(a, b, LinkClass::Derive, LinkKind::DeriveFrom);
        assert_eq!(link.traverse_from(a, Direction::Down), Some(b));
        assert_eq!(link.traverse_from(a, Direction::Up), None);
        assert_eq!(link.traverse_from(b, Direction::Up), Some(a));
        assert_eq!(link.traverse_from(b, Direction::Down), None);
    }

    #[test]
    fn other_end_is_symmetric() {
        let (_db, a, b) = two_oids();
        let link = Link::new(a, b, LinkClass::Use, LinkKind::Composition);
        assert_eq!(link.other_end(a), Some(b));
        assert_eq!(link.other_end(b), Some(a));
    }

    #[test]
    fn propagate_filter() {
        let (_db, a, b) = two_oids();
        let mut link = Link::new(a, b, LinkClass::Derive, LinkKind::DeriveFrom);
        assert!(!link.allows("outofdate"));
        link.propagates.insert("outofdate".into());
        assert!(link.allows("outofdate"));
        assert!(!link.allows("lvs"));
    }

    #[test]
    fn direction_parse_and_reverse() {
        assert_eq!("up".parse::<Direction>().unwrap(), Direction::Up);
        assert_eq!("down".parse::<Direction>().unwrap(), Direction::Down);
        assert!("sideways".parse::<Direction>().is_err());
        assert_eq!(Direction::Up.reverse(), Direction::Down);
        assert_eq!(Direction::Down.reverse(), Direction::Up);
    }

    #[test]
    fn link_kind_keywords_roundtrip() {
        for kind in [
            LinkKind::Composition,
            LinkKind::Equivalence,
            LinkKind::DependOn,
            LinkKind::DeriveFrom,
            LinkKind::Other("golden".into()),
        ] {
            let parsed: LinkKind = kind.as_keyword().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        // The paper's EDTC example writes `derived`; it maps to DeriveFrom.
        assert_eq!("derived".parse::<LinkKind>().unwrap(), LinkKind::DeriveFrom);
    }
}

//! OID triplets: block-name × view-type × version.
//!
//! "To each design object corresponds a meta-data object (referenced by an
//! OID, Object Identifier), which is defined by a triplet of block-name,
//! view-type and version number." — Section 2.

use std::fmt;
use std::str::FromStr;

use crate::error::MetaError;

/// A design block name, e.g. `cpu` or `reg`.
///
/// Block names are case-preserving but compared case-sensitively, matching
/// the paper's examples which freely mix `CPU` and `cpu`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockName(String);

impl BlockName {
    /// Creates a block name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains a comma (the wire-format
    /// separator); use [`BlockName::try_new`] for fallible construction.
    pub fn new(name: impl Into<String>) -> Self {
        Self::try_new(name).expect("invalid block name")
    }

    /// Fallible constructor validating the wire-format constraints.
    pub fn try_new(name: impl Into<String>) -> Result<Self, MetaError> {
        let name = name.into();
        validate_component(&name, "block name")?;
        Ok(BlockName(name))
    }

    /// The block name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for BlockName {
    fn from(s: &str) -> Self {
        BlockName::new(s)
    }
}

/// A design view type, e.g. `HDL_model`, `schematic`, `netlist`, `layout`.
///
/// "OIDs are instances of views defined in the BluePrint" — Section 3.2.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewType(String);

impl ViewType {
    /// Creates a view type.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains a comma; use
    /// [`ViewType::try_new`] for fallible construction.
    pub fn new(name: impl Into<String>) -> Self {
        Self::try_new(name).expect("invalid view type")
    }

    /// Fallible constructor validating the wire-format constraints.
    pub fn try_new(name: impl Into<String>) -> Result<Self, MetaError> {
        let name = name.into();
        validate_component(&name, "view type")?;
        Ok(ViewType(name))
    }

    /// The view type as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ViewType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ViewType {
    fn from(s: &str) -> Self {
        ViewType::new(s)
    }
}

fn validate_component(s: &str, what: &str) -> Result<(), MetaError> {
    if s.is_empty() {
        return Err(MetaError::OidParse {
            reason: format!("{what} is empty"),
            input: s.to_string(),
        });
    }
    if s.contains(',') || s.contains(char::is_whitespace) {
        return Err(MetaError::OidParse {
            reason: format!("{what} contains a separator character"),
            input: s.to_string(),
        });
    }
    Ok(())
}

/// An Object Identifier: the `<block, view, version>` triplet of Section 2.
///
/// Parsed and displayed in the paper's wire form `block,view,version` (as in
/// `postEvent ckin up reg,verilog,4`); the prose form `<CPU.HDL_model.1>` is
/// accepted by [`Oid::from_str`] as well.
///
/// # Example
///
/// ```
/// use damocles_meta::Oid;
///
/// let oid: Oid = "reg,verilog,4".parse()?;
/// assert_eq!(oid.block.as_str(), "reg");
/// assert_eq!(oid.version, 4);
/// assert_eq!(oid.to_string(), "reg,verilog,4");
/// # Ok::<(), damocles_meta::MetaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid {
    /// The design block this object describes.
    pub block: BlockName,
    /// The representation (design view) of the block.
    pub view: ViewType,
    /// Version number within the `(block, view)` chain; the paper counts
    /// from 1.
    pub version: u32,
}

impl Oid {
    /// Creates an OID triplet.
    ///
    /// # Panics
    ///
    /// Panics if `block` or `view` are invalid component names; use
    /// [`Oid::try_new`] for fallible construction.
    pub fn new(block: impl Into<String>, view: impl Into<String>, version: u32) -> Self {
        Self::try_new(block, view, version).expect("invalid OID component")
    }

    /// Fallible constructor.
    pub fn try_new(
        block: impl Into<String>,
        view: impl Into<String>,
        version: u32,
    ) -> Result<Self, MetaError> {
        Ok(Oid {
            block: BlockName::try_new(block)?,
            view: ViewType::try_new(view)?,
            version,
        })
    }

    /// The same block/view at a different version.
    pub fn at_version(&self, version: u32) -> Oid {
        Oid {
            block: self.block.clone(),
            view: self.view.clone(),
            version,
        }
    }

    /// The `(block, view)` pair identifying this OID's version chain.
    pub fn chain(&self) -> (&BlockName, &ViewType) {
        (&self.block, &self.view)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{},{}", self.block, self.view, self.version)
    }
}

impl FromStr for Oid {
    type Err = MetaError;

    /// Parses `block,view,version` (wire form) or `block.view.version`
    /// (prose form, optionally wrapped in `<`…`>`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim().trim_start_matches('<').trim_end_matches('>');
        let sep = if trimmed.contains(',') { ',' } else { '.' };
        let parts: Vec<&str> = trimmed.split(sep).collect();
        if parts.len() != 3 {
            return Err(MetaError::OidParse {
                reason: format!("expected 3 components, found {}", parts.len()),
                input: s.to_string(),
            });
        }
        let version: u32 = parts[2].trim().parse().map_err(|_| MetaError::OidParse {
            reason: format!("version `{}` is not a number", parts[2]),
            input: s.to_string(),
        })?;
        Oid::try_new(parts[0].trim(), parts[1].trim(), version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let oid = Oid::new("reg", "verilog", 4);
        let parsed: Oid = oid.to_string().parse().unwrap();
        assert_eq!(parsed, oid);
    }

    #[test]
    fn prose_form_parses() {
        let oid: Oid = "<CPU.HDL_model.1>".parse().unwrap();
        assert_eq!(oid, Oid::new("CPU", "HDL_model", 1));
    }

    #[test]
    fn rejects_two_components() {
        let err = "cpu,schematic".parse::<Oid>().unwrap_err();
        assert!(matches!(err, MetaError::OidParse { .. }));
    }

    #[test]
    fn rejects_non_numeric_version() {
        let err = "cpu,schematic,latest".parse::<Oid>().unwrap_err();
        assert!(matches!(err, MetaError::OidParse { .. }));
    }

    #[test]
    fn rejects_empty_block() {
        assert!(BlockName::try_new("").is_err());
        assert!(ViewType::try_new("a b").is_err());
        assert!(BlockName::try_new("a,b").is_err());
    }

    #[test]
    fn at_version_preserves_chain() {
        let v1 = Oid::new("alu", "GDSII", 5);
        let v2 = v1.at_version(6);
        assert_eq!(v2.block, v1.block);
        assert_eq!(v2.view, v1.view);
        assert_eq!(v2.version, 6);
    }

    #[test]
    fn ordering_is_block_view_version() {
        let a = Oid::new("alu", "GDSII", 5);
        let b = Oid::new("alu", "GDSII", 6);
        let c = Oid::new("cpu", "GDSII", 1);
        assert!(a < b && b < c);
    }
}

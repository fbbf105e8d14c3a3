//! The `postEvent` wire format of Section 3.1.
//!
//! "An event message consists of an event name, a propagation direction
//! (either up or down through the links), a target OID and optional
//! arguments:
//!
//! ```text
//! postEvent ckin up reg,verilog,4 "logic sim passed"
//! ```
//!
//! Wrapper programs emit these lines over the network; the BluePrint engine
//! parses them into [`EventMessage`] values and queues them FIFO.

use std::fmt;
use std::str::FromStr;

use crate::error::MetaError;
use crate::link::Direction;
use crate::oid::Oid;

/// A parsed design-event message.
///
/// # Example
///
/// ```
/// use damocles_meta::{EventMessage, Direction};
///
/// let msg: EventMessage = r#"postEvent ckin up reg,verilog,4 "logic sim passed""#.parse()?;
/// assert_eq!(msg.event, "ckin");
/// assert_eq!(msg.direction, Direction::Up);
/// assert_eq!(msg.target.to_string(), "reg,verilog,4");
/// assert_eq!(msg.args, vec!["logic sim passed"]);
/// // Round-trips back to the wire form:
/// assert_eq!(msg.to_string(), r#"postEvent ckin up reg,verilog,4 "logic sim passed""#);
/// # Ok::<(), damocles_meta::MetaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventMessage {
    /// The event name (`ckin`, `hdl_sim`, `outofdate`, …).
    pub event: String,
    /// Propagation direction through the links.
    pub direction: Direction,
    /// The OID the event is targeted at.
    pub target: Oid,
    /// Optional arguments; the first one is what run-time rules see as
    /// `$arg` (e.g. `"4 errors"` or `"good"`).
    pub args: Vec<String>,
}

impl EventMessage {
    /// Builds an event message.
    pub fn new(event: impl Into<String>, direction: Direction, target: Oid) -> Self {
        EventMessage {
            event: event.into(),
            direction,
            target,
            args: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    pub fn with_arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// The first argument, the `$arg` of run-time rules.
    pub fn arg(&self) -> Option<&str> {
        self.args.first().map(String::as_str)
    }
}

/// A structured wire-parse diagnostic: the byte offset of the offending
/// token in the input line, the token found there, and what the grammar
/// expected instead.
///
/// Produced by [`EventMessage::parse_wire`]; the API layer surfaces it as
/// `ApiError::Parse` so wrapper programs get a machine-readable position
/// rather than a bare reason string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiag {
    /// Byte offset of the offending token in the input line.
    pub at: usize,
    /// The token found at `at` (`"end of line"` when input ran out).
    pub found: String,
    /// What the grammar expected at `at`.
    pub expected: String,
}

impl WireDiag {
    fn new(at: usize, found: &str, expected: impl Into<String>) -> Self {
        WireDiag {
            at,
            found: if found.is_empty() {
                "end of line".to_string()
            } else {
                found.to_string()
            },
            expected: expected.into(),
        }
    }
}

impl fmt::Display for WireDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at byte {}: expected {}, found `{}`",
            self.at, self.expected, self.found
        )
    }
}

/// A whitespace word scanner that remembers byte offsets — the one
/// positional tokenizer behind the wire parser, the command-protocol
/// codec and the shell grammar, so diagnostics from every surface agree
/// on where a token starts.
///
/// Words are delimited by **exactly** the separator set
/// [`crate::persist::escape`] escapes (space, tab, CR, LF) — not full
/// Unicode whitespace. The invariant matters: an escaped string must
/// survive as one word, so any character the escaper passes through
/// (U+000B, U+00A0, U+2028, …) must not split words here.
#[derive(Debug, Clone)]
pub struct WordCursor<'a> {
    line: &'a str,
    pos: usize,
}

/// The codec's word separators — kept equal to the set
/// [`crate::persist::escape`] percent-escapes.
fn is_separator(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

impl<'a> WordCursor<'a> {
    /// A cursor at the start of `line`.
    pub fn new(line: &'a str) -> Self {
        WordCursor { line, pos: 0 }
    }

    /// The scanned line.
    pub fn line(&self) -> &'a str {
        self.line
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to `pos` (must be a char boundary) — for callers
    /// that consume non-word syntax (quoted arguments) themselves.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos.min(self.line.len());
    }

    /// Advances past separators and returns the new offset.
    pub fn skip_ws(&mut self) -> usize {
        let rest = &self.line[self.pos..];
        let off = rest
            .char_indices()
            .find(|&(_, c)| !is_separator(c))
            .map_or(rest.len(), |(i, _)| i);
        self.pos += off;
        self.pos
    }

    /// The next word and its offset, without consuming it; `None` at end
    /// of line. Leaves the cursor at the word's start.
    pub fn peek_word(&mut self) -> Option<(usize, &'a str)> {
        self.skip_ws();
        if self.pos >= self.line.len() {
            return None;
        }
        let rest = &self.line[self.pos..];
        let end = rest
            .char_indices()
            .find(|&(_, c)| is_separator(c))
            .map_or(rest.len(), |(i, _)| i);
        Some((self.pos, &rest[..end]))
    }

    /// The next word and its offset, consumed; `None` at end of line.
    pub fn next_word(&mut self) -> Option<(usize, &'a str)> {
        let (at, word) = self.peek_word()?;
        self.pos = at + word.len();
        Some((at, word))
    }

    /// The unconsumed remainder (leading and trailing separators
    /// trimmed), consuming the line.
    pub fn rest(&mut self) -> &'a str {
        self.skip_ws();
        let rest = self.line[self.pos..].trim_end_matches(is_separator);
        self.pos = self.line.len();
        rest
    }
}

impl fmt::Display for EventMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "postEvent {} {} {}",
            self.event, self.direction, self.target
        )?;
        for arg in &self.args {
            write!(f, " \"{}\"", arg.replace('\\', "\\\\").replace('"', "\\\""))?;
        }
        Ok(())
    }
}

impl EventMessage {
    /// Parses a `postEvent` wire line, reporting failures as a structured
    /// [`WireDiag`] carrying the byte offset of the offending token.
    ///
    /// [`EventMessage::from_str`] wraps this, folding the diagnostic into
    /// [`MetaError::WireParse`] for callers that only need the rendering.
    ///
    /// # Errors
    ///
    /// A [`WireDiag`] naming the position, the found token and the
    /// expected grammar element.
    pub fn parse_wire(line: &str) -> Result<Self, WireDiag> {
        let mut cursor = WordCursor::new(line);
        fn word_or_eol<'l>(c: &mut WordCursor<'l>) -> (usize, &'l str) {
            c.next_word().unwrap_or((c.pos(), ""))
        }
        let (at, keyword) = word_or_eol(&mut cursor);
        if keyword != "postEvent" {
            return Err(WireDiag::new(at, keyword, "the `postEvent` keyword"));
        }
        let (at, event) = word_or_eol(&mut cursor);
        if event.is_empty() {
            return Err(WireDiag::new(at, event, "an event name"));
        }
        let (at, dir_word) = word_or_eol(&mut cursor);
        let direction: Direction = dir_word
            .parse()
            .map_err(|_: String| WireDiag::new(at, dir_word, "a direction (`up` or `down`)"))?;
        let (at, target_word) = word_or_eol(&mut cursor);
        let target: Oid = target_word.parse().map_err(|e: MetaError| {
            WireDiag::new(
                at,
                target_word,
                format!("a target OID `block,view,version` ({})", e.short_reason()),
            )
        })?;
        // Arguments follow as a sequence of double-quoted strings.
        let mut args = Vec::new();
        let mut pos = cursor.skip_ws();
        while pos < line.len() {
            if !line[pos..].starts_with('"') {
                let (_, word) = cursor.peek_word().unwrap_or((pos, ""));
                return Err(WireDiag::new(pos, word, "a double-quoted argument"));
            }
            let body = &line[pos + 1..];
            let mut value = String::new();
            let mut chars = body.char_indices();
            let mut close = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => {
                        if let Some((_, next)) = chars.next() {
                            value.push(next);
                        }
                    }
                    '"' => {
                        close = Some(i);
                        break;
                    }
                    other => value.push(other),
                }
            }
            let Some(close) = close else {
                return Err(WireDiag::new(
                    pos,
                    &line[pos..],
                    "a closing `\"` for this argument",
                ));
            };
            args.push(value);
            cursor.seek(pos + 1 + close + 1);
            pos = cursor.skip_ws();
        }
        Ok(EventMessage {
            event: event.to_string(),
            direction,
            target,
            args,
        })
    }
}

impl FromStr for EventMessage {
    type Err = MetaError;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        EventMessage::parse_wire(line).map_err(|d| MetaError::WireParse {
            reason: d.to_string(),
            input: line.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example() {
        let msg: EventMessage = r#"postEvent ckin up reg,verilog,4 "logic sim passed""#
            .parse()
            .unwrap();
        assert_eq!(msg.event, "ckin");
        assert_eq!(msg.direction, Direction::Up);
        assert_eq!(msg.target, Oid::new("reg", "verilog", 4));
        assert_eq!(msg.arg(), Some("logic sim passed"));
    }

    #[test]
    fn parses_without_args() {
        let msg: EventMessage = "postEvent outofdate down cpu,schematic,1".parse().unwrap();
        assert!(msg.args.is_empty());
        assert_eq!(msg.arg(), None);
    }

    #[test]
    fn parses_multiple_args() {
        let msg: EventMessage = r#"postEvent lvs up alu,layout,2 "not_equiv" "rerun extraction""#
            .parse()
            .unwrap();
        assert_eq!(msg.args, vec!["not_equiv", "rerun extraction"]);
    }

    #[test]
    fn escaped_quotes_roundtrip() {
        let original = EventMessage::new("note", Direction::Down, Oid::new("a", "v", 1))
            .with_arg(r#"says "hello""#);
        let wire = original.to_string();
        let parsed: EventMessage = wire.parse().unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn display_roundtrip() {
        let original = EventMessage::new("ckin", Direction::Up, Oid::new("reg", "verilog", 4))
            .with_arg("logic sim passed");
        let parsed: EventMessage = original.to_string().parse().unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn diagnostics_carry_position_and_expectation() {
        let d = EventMessage::parse_wire("postEvent ckin sideways reg,v,1").unwrap_err();
        assert_eq!(d.at, 15);
        assert_eq!(d.found, "sideways");
        assert!(d.expected.contains("direction"));

        let d = EventMessage::parse_wire("postEvent ckin up").unwrap_err();
        assert_eq!(d.found, "end of line");
        assert!(d.expected.contains("target OID"));

        let d = EventMessage::parse_wire("postEvent ckin up reg,v,1 bare").unwrap_err();
        assert_eq!(d.at, 26);
        assert_eq!(d.found, "bare");
        assert!(d.expected.contains("double-quoted"));

        let d = EventMessage::parse_wire(r#"postEvent ckin up reg,v,1 "open"#).unwrap_err();
        assert_eq!(d.at, 26);
        assert!(d.expected.contains("closing"));

        // The MetaError rendering keeps both the position and the input.
        let e = r#"notpost ckin up reg,v,1"#.parse::<EventMessage>().unwrap_err();
        let s = e.to_string();
        assert!(s.contains("at byte 0"), "{s}");
        assert!(s.contains("postEvent"), "{s}");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "ckin up reg,verilog,4",              // missing keyword
            "postEvent",                          // nothing else
            "postEvent ckin",                     // no direction
            "postEvent ckin sideways reg,v,1",    // bad direction
            "postEvent ckin up",                  // no target
            "postEvent ckin up reg,verilog",      // bad OID
            r#"postEvent ckin up reg,v,1 "open"#, // unterminated arg
            "postEvent ckin up reg,v,1 bare",     // unquoted arg
        ] {
            assert!(
                bad.parse::<EventMessage>().is_err(),
                "should have rejected `{bad}`"
            );
        }
    }
}

//! The `PROTOCOL.md` transcripts are real wire lines. Every `→` request
//! and `←` reply in its `text` blocks decodes and re-encodes
//! byte-identically through the codecs the server runs: bare `postEvent`
//! lines through `EventMessage::parse_wire`, other requests through
//! `Request::decode`, replies through `Response::decode`, and `tail-*`
//! frames through `TailFrame::decode`, with every streamed record's
//! checksum verified by `journal::decode_record`. A request that does not
//! decode must be answered by exactly the error the server sends for it.

use blueprint_core::engine::api::{ApiError, Request, Response};
use blueprint_core::engine::tail::TailFrame;
use damocles_meta::journal::{decode_record, encode_record, JournalOp};
use damocles_meta::EventMessage;

/// `(line number, is request, wire line)` for every transcript line of
/// PROTOCOL.md's `text` blocks. Grammar templates (lines with `<…>`
/// placeholders) are skipped, and trailing `  # …` annotations cut off.
fn transcript_lines() -> Vec<(usize, bool, String)> {
    let mut in_text = false;
    let mut lines = Vec::new();
    for (n, line) in include_str!("../PROTOCOL.md").lines().enumerate() {
        if line.starts_with("```") {
            in_text = line == "```text";
            continue;
        }
        let (request, wire) = match (line.strip_prefix("→ "), line.strip_prefix("← ")) {
            (Some(wire), _) => (true, wire),
            (_, Some(wire)) => (false, wire),
            _ => continue,
        };
        let wire = wire.split("  #").next().unwrap_or(wire).trim_end();
        if in_text && !(wire.contains('<') && wire.contains('>')) {
            lines.push((n + 1, request, wire.to_string()));
        }
    }
    lines
}

/// The canonical re-encoding of a request line, or the error the server
/// answers it with.
fn request(line: &str) -> Result<String, ApiError> {
    if line.starts_with("postEvent") {
        Ok(EventMessage::parse_wire(line)?.to_string())
    } else {
        Ok(Request::decode(line)?.encode())
    }
}

/// The canonical re-encoding of a reply line or tail frame.
fn reply(line: &str) -> Result<String, String> {
    if !line.starts_with("tail-") {
        return Response::decode(line)
            .map(|r| r.encode())
            .map_err(|e| e.to_string());
    }
    let frame = TailFrame::decode(line)?;
    if let TailFrame::Record { line: record, .. } = &frame {
        let mut words = record.splitn(3, ' ').skip(1);
        let seq = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
        decode_record(record, seq).map_err(|e| {
            let op = JournalOp::decode(words.next().unwrap_or(""));
            let fixed = op.map(|op| encode_record(seq, &op).trim_end().to_string());
            format!("record `{record}`: {e} (the op encodes as {fixed:?})")
        })?;
    }
    Ok(frame.encode())
}

#[test]
fn every_transcript_line_is_a_canonical_wire_line() {
    let lines = transcript_lines();
    assert!(lines.len() >= 30, "only {} transcript lines", lines.len());
    let mut failures = Vec::new();
    let mut answer: Option<String> = None;
    for (n, is_request, line) in lines {
        let canonical = if is_request {
            match request(&line) {
                Ok(canonical) => Ok(canonical),
                Err(e) => {
                    answer = Some(Response::Error(e).encode());
                    continue;
                }
            }
        } else {
            match answer.take() {
                Some(expected) if expected != line => Ok(expected),
                _ => reply(&line),
            }
        };
        match canonical {
            Ok(canonical) if canonical == line => {}
            Ok(canonical) => failures.push(format!("line {n}: `{line}` is `{canonical}`")),
            Err(e) => failures.push(format!("line {n}: `{line}`: {e}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

//! The benchmark's own span recorder: spans are kept in memory while a
//! traced run measures and written as JSON lines when it ends.
//!
//! A span is `{req, name, start_ns, end_ns, parent}`; spans of one
//! operation share `req`, `parent` names the span that caused it (null
//! for the operation's root), and times are nanoseconds since the run's
//! epoch. A layer's self time is its span's duration minus the part its
//! children cover.

use crate::json::quote;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
}

/// Write `spans` to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), quote);
        writeln!(
            w,
            "{{\"req\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
            s.req,
            quote(s.name),
            s.start_ns,
            s.end_ns,
            parent
        )
        .map_err(err)?;
    }
    w.flush().map_err(err)
}

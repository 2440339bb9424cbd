//! Strict JSON, written and read by hand (the tree has no JSON crate).
//!
//! The writer side is two helpers — [`num`] refuses non-finite values,
//! [`quote`] escapes a string — and the reader is a minimal recursive
//! descent parser, enough to re-read the benchmark's own output before
//! it exits 0 and to load result files for `--check` / `--spread`.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }
}

/// A finite number in JSON syntax, with every digit `f64` carries.
/// NaN and the infinities have no JSON spelling: that is an error, not
/// a `null`.
pub fn num(v: f64) -> Result<String, String> {
    if !v.is_finite() {
        return Err(format!("non-finite value {v} has no JSON form"));
    }
    // Rust prints the shortest decimal that round-trips, never an
    // exponent and never a bare `.5` or `5.`, so it is a JSON number.
    Ok(format!("{v}"))
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

/// Nesting deeper than this is refused (result files are 3 deep).
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut kv: Vec<(String, Json)> = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    if kv.iter().any(|(seen, _)| *seen == k) {
                        return Err(format!("duplicate key `{k}`"));
                    }
                    self.ws();
                    self.eat(":")?;
                    kv.push((k, self.value(depth + 1)?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.s.get(self.i), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs never occur in this
                            // program's output; refuse rather than guess.
                            out.push(char::from_u32(code).ok_or("unsupported \\u escape")?);
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.i)),
            }
        }
    }

    /// The JSON number grammar exactly: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?` — `inf`, `NaN`, `+1`, `01` and `1.` are all
    /// rejected, which is the point of validating the output.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let digits = |p: &mut Self| {
            let from = p.i;
            while matches!(p.s.get(p.i), Some(b'0'..=b'9')) {
                p.i += 1;
            }
            p.i - from
        };
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        match self.s.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(format!("bad number at byte {start}")),
        }
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if digits(self) == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if digits(self) == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        let v: f64 = text.parse().map_err(|e| format!("{text}: {e}"))?;
        if !v.is_finite() {
            return Err(format!("number out of range: {text}"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_writer_emits() {
        let line = format!(
            "{{{}: true, {}: {}, \"m\": {{\"x\": {{\"value\": {}, \"unit\": {}}}}}}}",
            quote("correct"),
            quote("attempted"),
            num(1000.0).unwrap(),
            num(1.2034e-7).unwrap(),
            quote("ops/s"),
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let x = v.get("m").and_then(|m| m.get("x")).unwrap();
        assert_eq!(x.get("value").and_then(Json::as_f64), Some(1.2034e-7));
        assert_eq!(x.get("unit").and_then(Json::as_str), Some("ops/s"));
    }

    #[test]
    fn refuses_what_strict_json_refuses() {
        assert!(num(f64::INFINITY).is_err());
        assert!(num(f64::NAN).is_err());
        for bad in [
            "inf",
            "{\"a\": inf}",
            "NaN",
            "01",
            "1.",
            "+1",
            "{\"a\": 1,}",
            "{\"a\": 1, \"a\": 2}",
            "[1 2]",
            "{} x",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
        assert_eq!(parse(" [1, -2.5e3, \"a\\n\"] ").unwrap(), {
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Str("a\n".into()),
            ])
        });
    }
}

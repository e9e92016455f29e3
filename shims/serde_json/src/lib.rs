//! In-tree stand-in for the part of `serde_json` 1.x that the seagull crates
//! use, imported under the name `serde_json`: the [`Value`] tree (defined by
//! the `serde` stand-in, whose `Display` is the JSON writer), conversion to
//! it, a JSON reader that yields a [`Value`], and [`json!`]. Objects keep
//! their keys sorted, as serde_json does without `preserve_order`; floats
//! print with Rust's shortest round-trip form.

#![forbid(unsafe_code)]

use serde::Serialize;

pub use serde::{to_value, Error, Map, Value};

/// Result alias, as in serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.to_string())
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(format!("{:#}", to_value(value)?))
}

/// A [`Value`] written as JSON: `null`, `[..]` and `{"key": ..}` nest, and
/// any other element or member value is a Rust expression passed through
/// [`to_value`]. Object keys are string literals.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ([ $($items:tt)* ]) => {
        $crate::Value::Array($crate::__json_items!([] $($items)*))
    };
    ({ $($members:tt)* }) => {
        $crate::Value::Object($crate::__json_members!([] $($members)*))
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value serializes")
    };
}

/// Array elements of [`json!`], one per step: the finished ones in `[..]`.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_items {
    ([$($done:expr,)*]) => {
        ::std::vec![$($done),*]
    };
    ([$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::Value::Null,] $($($rest)*)?)
    };
    ([$($done:expr,)*] [$($array:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!([$($array)*]),] $($($rest)*)?)
    };
    ([$($done:expr,)*] {$($object:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!({$($object)*}),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::__json_items!([$($done,)* $crate::json!($next),] $($($rest)*)?)
    };
}

/// Object members of [`json!`], one per step: the finished ones in `[..]`.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_members {
    ([]) => {
        $crate::Map::new()
    };
    ([$($key:expr => $value:expr,)+]) => {{
        let mut map = $crate::Map::new();
        $(map.insert(::std::string::String::from($key), $value);)*
        map
    }};
    ([$($done:tt)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::__json_members!([$($done)* $key => $crate::Value::Null,] $($($rest)*)?)
    };
    ([$($done:tt)*] $key:literal : [$($array:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_members!([$($done)* $key => $crate::json!([$($array)*]),] $($($rest)*)?)
    };
    ([$($done:tt)*] $key:literal : {$($object:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_members!([$($done)* $key => $crate::json!({$($object)*}),] $($($rest)*)?)
    };
    ([$($done:tt)*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::__json_members!([$($done)* $key => $crate::json!($value),] $($($rest)*)?)
    };
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<()> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unexpected token"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    /// Skips a run of digits; at least one must be there.
    fn digits(&mut self) -> Result<()> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("invalid number"));
        }
        Ok(())
    }

    /// A number as JSON's grammar has it: an optional `-`; `0`, or a digit
    /// run not led by `0`; optionally `.` and digits; optionally `e` or `E`,
    /// an optional sign and digits. Checked before Rust's `parse`, which
    /// also takes `+1`, `01`, `.5` and `1.`.
    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.error("invalid number")),
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::I64(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(self.error("invalid number")),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = match self.hex4()? {
                                high @ 0xd800..=0xdbff => {
                                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                                        return Err(self.error("unpaired surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(self.error("unpaired surrogate"));
                                    }
                                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                                }
                                0xdc00..=0xdfff => return Err(self.error("unpaired surrogate")),
                                code => code,
                            };
                            out.push(char::from_u32(code).expect("a scalar value"));
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
            }
        }
    }
}

/// Parses JSON text into a [`Value`].
pub fn from_str(text: &str) -> Result<Value> {
    from_slice(text.as_bytes())
}

/// Parses JSON bytes into a [`Value`].
pub fn from_slice(bytes: &[u8]) -> Result<Value> {
    let mut parser = Parser { bytes, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_text() {
        let text = r#"{"a":[1,-2,3.5,null,true],"b":{"c":"x\nyé"},"d":1e3}"#;
        let value: Value = from_str(text).unwrap();
        assert_eq!(value.get("d").and_then(Value::as_f64), Some(1000.0));
        let again: Value = from_str(&to_string(&value).unwrap()).unwrap();
        assert_eq!(value, again);
        let pretty: Value = from_str(&to_string_pretty(&value).unwrap()).unwrap();
        assert_eq!(value, pretty);
    }

    #[test]
    fn json_macro_nests_and_takes_expressions() {
        let servers = [3u64, 7];
        let value = json!({
            "region": "west",
            "servers": servers.iter().map(|s| s * 2).collect::<Vec<_>>(),
            "gc": null,
            "n": [1, { "x": -2 }, [], null],
            "empty": {},
        });
        assert_eq!(
            value.to_string(),
            r#"{"empty":{},"gc":null,"n":[1,{"x":-2},[],null],"region":"west","servers":[6,14]}"#
        );
        assert_eq!(value["region"], "west");
        assert_eq!(value["n"], json!([1, { "x": -2 }, [], null]));
        assert_eq!(value["missing"], Value::Null);
        assert_eq!(json!(2.5), Value::F64(2.5));
        assert_eq!(json!(-3i64), Value::I64(-3));
        assert_eq!(json!(3u32), 3);
        assert_ne!(json!(3.0), 3);
        assert_eq!(json!(true), true);
    }

    #[test]
    fn pretty_text_indents_by_two() {
        let value = json!({ "a": [1, "x\"y"], "b": {} });
        assert_eq!(
            to_string_pretty(&value).unwrap(),
            "{\n  \"a\": [\n    1,\n    \"x\\\"y\"\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "{\"a\":}", "[1,2", "1 2", "+1", "01", ".5", "1.", "1e", "-", "[1.e3]",
        ] {
            assert!(from_str(text).is_err(), "{text} parsed");
        }
        // A `\u` escape is four hex digits, not a number `from_str_radix` takes.
        assert!(from_str(r#""\u+041""#).is_err());
        for (text, value) in [("0", Value::U64(0)), ("-12", Value::I64(-12))] {
            assert_eq!(from_str(text), Ok(value));
        }
        assert_eq!(from_str("-0.5E+1"), Ok(Value::F64(-5.0)));
    }

    #[test]
    fn surrogates_pair_or_the_string_is_refused() {
        let pair = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(pair.as_str(), Some("\u{1f600}"));
        for text in [
            r#""\ud800A""#,
            r#""\ud800\u0041""#,
            r#""\udc00""#,
            r#""\ud800""#,
        ] {
            assert!(from_str(text).is_err(), "{text} parsed");
        }
    }
}

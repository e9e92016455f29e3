//! In-tree stand-in for the serializing half of `serde` 1.x that the
//! seagull crates use, imported under the name `serde`. The real crate
//! drives a visitor per data format; the only format in this workspace is
//! JSON, and nothing decodes JSON into a typed value, so this crate routes
//! every `Serialize` through one JSON-shaped tree, the [`Value`] that
//! `serde_json` re-exports: a serializer receives one finished [`Value`].
//! The derive macro and the `serde_json` stand-in build on the same tree,
//! and the JSON shapes match serde's defaults (externally tagged enums,
//! newtype structs as their inner value, `Duration` as `{secs, nanos}`,
//! non-finite floats as `null`).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Index;
use std::time::Duration;

pub use serde_derive::Serialize;

/// A JSON object: string keys, sorted.
pub type Map = BTreeMap<String, Value>;

/// A JSON-shaped value tree (re-exported by `serde_json` as `Value`).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

/// Accessors named after `serde_json::Value`'s.
impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(x) => Some(x),
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The number as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => |$v:ident| $expr:expr;)*) => {$(
        impl From<$ty> for Value {
            fn from($v: $ty) -> Value {
                $expr
            }
        }
    )*};
}

value_from! {
    bool => |v| Value::Bool(v);
    u32 => |v| Value::U64(u64::from(v));
    u64 => |v| Value::U64(v);
    usize => |v| Value::U64(v as u64);
    i64 => |v| signed(v);
    f64 => |v| float(v);
    &str => |v| Value::String(v.to_string());
    String => |v| Value::String(v);
    Vec<Value> => |v| Value::Array(v);
    Map => |v| Value::Object(v);
}

/// `value["key"]`: the member `key` of an object, or `null` when there is
/// none (or `value` is not an object), as in `serde_json`.
impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// An integer equal to `other`; a float never is, as in `serde_json`.
impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// A line break and `depth` levels of two-space indent, when indenting.
fn newline(out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
    if let Some(depth) = indent {
        out.write_char('\n')?;
        for _ in 0..depth {
            out.write_str("  ")?;
        }
    }
    Ok(())
}

/// Writes `value` as JSON: compact for `indent == None`, else indented from
/// depth `indent`.
fn write_json(out: &mut impl fmt::Write, value: &Value, indent: Option<usize>) -> fmt::Result {
    let deeper = indent.map(|d| d + 1);
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write!(out, "{n}"),
        Value::I64(n) => write!(out, "{n}"),
        // `{:?}` is the shortest form that reads back exactly and always
        // carries a `.0` or an exponent, so floats stay floats.
        Value::F64(x) => write!(out, "{x:?}"),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline(out, deeper)?;
                write_json(out, item, deeper)?;
            }
            if !items.is_empty() {
                newline(out, indent)?;
            }
            out.write_char(']')
        }
        Value::Object(map) => {
            out.write_char('{')?;
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline(out, deeper)?;
                write_string(out, key)?;
                out.write_char(':')?;
                if indent.is_some() {
                    out.write_char(' ')?;
                }
                write_json(out, item, deeper)?;
            }
            if !map.is_empty() {
                newline(out, indent)?;
            }
            out.write_char('}')
        }
    }
}

/// JSON text: compact with `{}` (what `serde_json::to_string` writes),
/// indented by two spaces with `{:#}` (`serde_json::to_string_pretty`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        write_json(f, self, indent)
    }
}

/// The one error type of this crate (also `serde_json::Error`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn msg(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization half.
pub mod ser {
    pub use super::{Serialize, Serializer};

    /// Errors a serializer can raise.
    pub trait Error: Sized + std::fmt::Display {
        /// An error carrying `msg`.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for super::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            super::Error::msg(msg)
        }
    }
}

/// A data structure that can be serialized.
pub trait Serialize {
    /// Serializes `self` into `serializer`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for one serialized value.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: ser::Error;
    /// Receives the finished tree.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// The serializer that returns the tree itself.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    fn serialize_value(self, value: Value) -> Result<Value, Error> {
        Ok(value)
    }
}

/// Serializes `value` to a tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

/// Support code for the derive macros; not a public interface.
#[doc(hidden)]
pub mod __private {
    use super::*;

    pub fn ser<T: Serialize + ?Sized, E: ser::Error>(value: &T) -> Result<Value, E> {
        to_value(value).map_err(E::custom)
    }

    pub fn tagged(name: &str, payload: Value) -> Value {
        let mut map = Map::new();
        map.insert(name.to_string(), payload);
        Value::Object(map)
    }
}

// ---------------------------------------------------------------------------
// Implementations for std types
// ---------------------------------------------------------------------------

macro_rules! serialize_as {
    ($($ty:ty => |$v:ident| $expr:expr;)*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let $v = self;
                serializer.serialize_value($expr)
            }
        }
    )*};
}

fn float(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

fn signed(v: i64) -> Value {
    if v < 0 {
        Value::I64(v)
    } else {
        Value::U64(v as u64)
    }
}

serialize_as! {
    bool => |v| Value::Bool(*v);
    u8 => |v| Value::U64(u64::from(*v));
    u16 => |v| Value::U64(u64::from(*v));
    u32 => |v| Value::U64(u64::from(*v));
    u64 => |v| Value::U64(*v);
    usize => |v| Value::U64(*v as u64);
    i8 => |v| signed(i64::from(*v));
    i16 => |v| signed(i64::from(*v));
    i32 => |v| signed(i64::from(*v));
    i64 => |v| signed(*v);
    isize => |v| signed(*v as i64);
    f32 => |v| float(f64::from(*v));
    f64 => |v| float(*v);
    str => |v| Value::String(v.to_string());
    String => |v| Value::String(v.clone());
    () => |_v| Value::Null;
    Value => |v| v.clone();
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(value) => value.serialize(serializer),
            None => serializer.serialize_value(Value::Null),
        }
    }
}

fn seq<'a, T: Serialize + 'a, S: Serializer>(
    items: impl Iterator<Item = &'a T>,
    serializer: S,
) -> Result<S::Ok, S::Error> {
    let items: Result<Vec<Value>, S::Error> = items.map(__private::ser).collect();
    serializer.serialize_value(Value::Array(items?))
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        seq(self.iter(), serializer)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        seq(self.iter(), serializer)
    }
}

macro_rules! tuple {
    ($($name:ident $idx:tt)+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(vec![$(__private::ser(&self.$idx)?),+]))
            }
        }
    };
}

tuple!(T0 0 T1 1);
tuple!(T0 0 T1 1 T2 2);

/// Map keys are JSON strings; integer keys are written in decimal.
fn key<K: Serialize, E: ser::Error>(k: &K) -> Result<String, E> {
    match __private::ser(k)? {
        Value::String(s) => Ok(s),
        Value::U64(n) => Ok(n.to_string()),
        Value::I64(n) => Ok(n.to_string()),
        other => Err(E::custom(format!(
            "map key must be a string, got {}",
            other.kind()
        ))),
    }
}

fn map<'a, K: Serialize + 'a, V: Serialize + 'a, S: Serializer>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    serializer: S,
) -> Result<S::Ok, S::Error> {
    let mut out = Map::new();
    for (k, v) in entries {
        out.insert(key(k)?, __private::ser(v)?);
    }
    serializer.serialize_value(Value::Object(out))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        map(self.iter(), serializer)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        map(self.iter(), serializer)
    }
}

impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut out = Map::new();
        out.insert("secs".to_string(), Value::U64(self.as_secs()));
        out.insert(
            "nanos".to_string(),
            Value::U64(u64::from(self.subsec_nanos())),
        );
        serializer.serialize_value(Value::Object(out))
    }
}

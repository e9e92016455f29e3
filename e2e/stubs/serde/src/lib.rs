//! Offline stand-in for the part of `serde` 1.x that the seagull crates
//! use. The real crate drives a visitor per data format; the only format in
//! this workspace is `serde_json`'s [`Value`], so this stand-in routes every
//! `Serialize` / `Deserialize` through that tree: a serializer receives one
//! finished [`Value`], a deserializer hands one out. The derive macros
//! (feature `derive`) and the `serde_json` stand-in build on the same tree,
//! and the JSON shapes match serde's defaults (externally tagged enums,
//! newtype structs as their inner value, `Duration` as `{secs, nanos}`,
//! non-finite floats as `null`).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::time::Duration;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

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

/// The one error type of the stand-in (also `serde_json::Error`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn msg(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }

    fn invalid(got: &Value, want: &str) -> Error {
        Error(format!("invalid type: {}, expected {want}", got.kind()))
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

/// Deserialization half.
pub mod de {
    pub use super::{Deserialize, Deserializer};

    /// Errors a deserializer can raise.
    pub trait Error: Sized + std::fmt::Display {
        /// An error carrying `msg`.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for super::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            super::Error::msg(msg)
        }
    }

    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
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

/// A data structure that can be deserialized.
pub trait Deserialize<'de>: Sized {
    /// Builds `Self` from `deserializer`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A source of one value tree.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;
    /// Hands the tree out.
    fn into_value(self) -> Result<Value, Self::Error>;
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

/// The deserializer that owns a tree.
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = Error;
    fn into_value(self) -> Result<Value, Error> {
        Ok(self.0)
    }
}

/// Serializes `value` to a tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

/// Deserializes a `T` from a tree.
pub fn from_value<T: de::DeserializeOwned>(value: Value) -> Result<T, Error> {
    T::deserialize(ValueDeserializer(value))
}

/// Support code for the derive macros; not a public interface.
#[doc(hidden)]
pub mod __private {
    use super::*;

    pub fn ser<T: Serialize + ?Sized, E: ser::Error>(value: &T) -> Result<Value, E> {
        to_value(value).map_err(E::custom)
    }

    pub fn de<T: de::DeserializeOwned, E: de::Error>(value: Value) -> Result<T, E> {
        from_value(value).map_err(E::custom)
    }

    pub fn object<E: de::Error>(value: Value, ty: &str) -> Result<Map, E> {
        match value {
            Value::Object(map) => Ok(map),
            other => Err(E::custom(Error::invalid(&other, &format!("struct {ty}")))),
        }
    }

    pub fn array<E: de::Error>(value: Value, len: usize, ty: &str) -> Result<Vec<Value>, E> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            other => Err(E::custom(Error::invalid(
                &other,
                &format!("{ty} as an array of {len}"),
            ))),
        }
    }

    /// A named field; a missing one reads as `null`, so `Option` fields
    /// default to `None` and every other type reports the field missing.
    pub fn field<T: de::DeserializeOwned, E: de::Error>(map: &mut Map, name: &str) -> Result<T, E> {
        match map.remove(name) {
            Some(value) => de(value),
            None => {
                from_value(Value::Null).map_err(|_| E::custom(format!("missing field `{name}`")))
            }
        }
    }

    /// A named field with `#[serde(default)]` or `#[serde(default = "..")]`.
    pub fn field_or<T: de::DeserializeOwned, E: de::Error>(
        map: &mut Map,
        name: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, E> {
        match map.remove(name) {
            Some(value) => de(value),
            None => Ok(default()),
        }
    }

    /// Splits an externally tagged enum into `(variant, payload)`.
    pub fn variant<E: de::Error>(value: Value, ty: &str) -> Result<(String, Value), E> {
        match value {
            Value::String(name) => Ok((name, Value::Null)),
            Value::Object(map) if map.len() == 1 => Ok(map.into_iter().next().expect("len 1")),
            other => Err(E::custom(Error::invalid(&other, &format!("enum {ty}")))),
        }
    }

    pub fn unknown_variant<E: de::Error>(name: &str, ty: &str) -> E {
        E::custom(format!("unknown variant `{name}` of enum {ty}"))
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

fn integer(value: &Value) -> Option<i128> {
    match *value {
        Value::U64(n) => Some(i128::from(n)),
        Value::I64(n) => Some(i128::from(n)),
        _ => None,
    }
}

macro_rules! deserialize_int {
    ($($ty:ty)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                let value = deserializer.into_value()?;
                integer(&value)
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| de::Error::custom(Error::invalid(&value, stringify!($ty))))
            }
        }
    )*};
}

deserialize_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

macro_rules! deserialize_with {
    ($($ty:ty, $want:expr => |$v:ident| $expr:expr;)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                let $v = deserializer.into_value()?;
                let out: Result<$ty, Value> = $expr;
                out.map_err(|got| de::Error::custom(Error::invalid(&got, $want)))
            }
        }
    )*};
}

deserialize_with! {
    bool, "a boolean" => |v| match v { Value::Bool(b) => Ok(b), other => Err(other) };
    f64, "a number" => |v| match v {
        Value::F64(x) => Ok(x),
        Value::U64(n) => Ok(n as f64),
        Value::I64(n) => Ok(n as f64),
        other => Err(other),
    };
    f32, "a number" => |v| match v {
        Value::F64(x) => Ok(x as f32),
        Value::U64(n) => Ok(n as f32),
        Value::I64(n) => Ok(n as f32),
        other => Err(other),
    };
    String, "a string" => |v| match v { Value::String(s) => Ok(s), other => Err(other) };
    (), "null" => |v| match v { Value::Null => Ok(()), other => Err(other) };
    Value, "any value" => |v| Ok(v);
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

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Option<T>, D::Error> {
        match deserializer.into_value()? {
            Value::Null => Ok(None),
            value => __private::de(value).map(Some),
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

fn unseq<'de, T: de::DeserializeOwned, C: FromIterator<T>, D: Deserializer<'de>>(
    deserializer: D,
) -> Result<C, D::Error> {
    match deserializer.into_value()? {
        Value::Array(items) => items.into_iter().map(__private::de).collect(),
        other => Err(de::Error::custom(Error::invalid(&other, "a sequence"))),
    }
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

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Vec<T>, D::Error> {
        unseq(deserializer)
    }
}

macro_rules! tuple {
    ($len:expr => $($name:ident $idx:tt)+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(vec![$(__private::ser(&self.$idx)?),+]))
            }
        }

        impl<'de, $($name: de::DeserializeOwned),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let items = __private::array(deserializer.into_value()?, $len, "a tuple")?;
                let mut items = items.into_iter();
                Ok(($(__private::de::<$name, _>(items.next().expect("length checked"))?,)+))
            }
        }
    };
}

tuple!(2 => T0 0 T1 1);
tuple!(3 => T0 0 T1 1 T2 2);

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

fn unkey<K: de::DeserializeOwned, E: de::Error>(k: String) -> Result<K, E> {
    let number = k
        .parse::<u64>()
        .map(Value::U64)
        .or_else(|_| k.parse::<i64>().map(Value::I64));
    match from_value(Value::String(k)) {
        Ok(key) => Ok(key),
        Err(e) => match number {
            Ok(n) => __private::de(n),
            Err(_) => Err(E::custom(e)),
        },
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

fn unmap<'de, K, V, C, D>(deserializer: D) -> Result<C, D::Error>
where
    K: de::DeserializeOwned,
    V: de::DeserializeOwned,
    C: FromIterator<(K, V)>,
    D: Deserializer<'de>,
{
    match deserializer.into_value()? {
        Value::Object(entries) => entries
            .into_iter()
            .map(|(k, v)| Ok((unkey(k)?, __private::de(v)?)))
            .collect(),
        other => Err(de::Error::custom(Error::invalid(&other, "a map"))),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        map(self.iter(), serializer)
    }
}

impl<'de, K: de::DeserializeOwned + Ord, V: de::DeserializeOwned> Deserialize<'de>
    for BTreeMap<K, V>
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<BTreeMap<K, V>, D::Error> {
        unmap(deserializer)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        map(self.iter(), serializer)
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: de::DeserializeOwned + Eq + Hash,
    V: de::DeserializeOwned,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<HashMap<K, V, H>, D::Error> {
        unmap(deserializer)
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

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Duration, D::Error> {
        let mut fields = __private::object(deserializer.into_value()?, "Duration")?;
        let secs: u64 = __private::field(&mut fields, "secs")?;
        let nanos: u32 = __private::field(&mut fields, "nanos")?;
        Ok(Duration::new(secs, nanos))
    }
}

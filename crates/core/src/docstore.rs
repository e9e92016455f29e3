//! The Cosmos DB substitute: an embedded, thread-safe document store.
//!
//! "Results are stored in Cosmos DB, globally distributed and highly
//! available database service" (Section 2.2). The pipeline writes prediction
//! and accuracy documents here. In the paper the backup scheduler queries
//! them; here it reads the serving snapshot, and durable predictions live in
//! `seagull-serve`'s `SGSS` snapshots and `SGJL` journal. This substitute
//! keeps the store's shape — named collections of documents with string ids,
//! upsert semantics, and id-ordered scans — in-process.
//!
//! A document is kept as the typed value it was written as, not as a JSON
//! tree: reading it back as that type is a clone. JSON is written, never
//! read: a read as `Value` renders `serde_json::to_value` of the document,
//! [`DocStore::snapshot_json`] prints it, and a read as any other type is
//! [`DocStoreError::WrongType`]. Nothing restores a store from its JSON.

use serde::ser::Error as _;
use serde::{Serialize, Serializer};
use serde_json::Value;
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// Errors from the document store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocStoreError {
    /// Rendering a document as JSON failed.
    Codec(String),
    /// Document not found.
    NotFound {
        /// Collection that was queried.
        collection: String,
        /// Missing document id.
        id: String,
    },
    /// The document was written as another type than the one asked for
    /// (and the one asked for is not `Value`).
    WrongType {
        /// Collection that was queried.
        collection: String,
        /// Id of the document.
        id: String,
    },
}

impl fmt::Display for DocStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocStoreError::Codec(m) => write!(f, "codec error: {m}"),
            DocStoreError::NotFound { collection, id } => {
                write!(f, "document {collection}/{id} not found")
            }
            DocStoreError::WrongType { collection, id } => {
                write!(f, "document {collection}/{id} was written as another type")
            }
        }
    }
}

impl std::error::Error for DocStoreError {}

fn codec(e: impl fmt::Display) -> DocStoreError {
    DocStoreError::Codec(e.to_string())
}

/// A stored document: the value an upsert was given, with its type (so a
/// reader of that type gets a clone) and its JSON (rendered on demand).
trait Doc: Any + Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn to_value(&self) -> Result<Value, DocStoreError>;
}

impl<T: Serialize + Send + Sync + 'static> Doc for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn to_value(&self) -> Result<Value, DocStoreError> {
        serde_json::to_value(self).map_err(codec)
    }
}

/// The snapshot renders each document where the serializer reaches it.
impl Serialize for dyn Doc {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_value()
            .map_err(S::Error::custom)?
            .serialize(serializer)
    }
}

/// Reads the document `collection/id` as a `T`: a clone when `T` is the
/// type it was written as, its JSON when `T` is `Value`, and
/// [`DocStoreError::WrongType`] otherwise.
fn read<T: Clone + 'static>(doc: &dyn Doc, collection: &str, id: &str) -> Result<T, DocStoreError> {
    if let Some(typed) = doc.as_any().downcast_ref::<T>() {
        return Ok(typed.clone());
    }
    if TypeId::of::<T>() != TypeId::of::<Value>() {
        return Err(DocStoreError::WrongType {
            collection: collection.to_string(),
            id: id.to_string(),
        });
    }
    let rendered: Box<dyn Any> = Box::new(doc.to_value()?);
    Ok(*rendered.downcast::<T>().expect("T is Value"))
}

#[derive(Default)]
struct Inner {
    collections: BTreeMap<String, BTreeMap<String, Arc<dyn Doc>>>,
}

/// A shared handle to the store (cheaply cloneable).
///
/// ```
/// use seagull_core::docstore::DocStore;
/// let store = DocStore::new();
/// store.upsert("scores", "a", &42.0);
/// let v: f64 = store.get("scores", "a").unwrap();
/// assert_eq!(v, 42.0);
/// assert_eq!(store.count("scores"), 1);
/// ```
#[derive(Clone, Default)]
pub struct DocStore {
    inner: Arc<RwLock<Inner>>,
}

impl DocStore {
    /// Creates an empty store.
    pub fn new() -> DocStore {
        DocStore::default()
    }

    /// Inserts or replaces a document, kept as a clone of `doc`.
    pub fn upsert<T: Serialize + Clone + Send + Sync + 'static>(
        &self,
        collection: &str,
        id: &str,
        doc: &T,
    ) {
        let doc: Arc<dyn Doc> = Arc::new(doc.clone());
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .collections
            .entry(collection.to_string())
            .or_default()
            .insert(id.to_string(), doc);
    }

    /// Fetches a document as a `T`: a clone when it was written as a `T`,
    /// its JSON when `T` is `Value`, otherwise [`DocStoreError::WrongType`].
    pub fn get<T: Clone + 'static>(&self, collection: &str, id: &str) -> Result<T, DocStoreError> {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let doc = guard
            .collections
            .get(collection)
            .and_then(|c| c.get(id))
            .ok_or_else(|| DocStoreError::NotFound {
                collection: collection.to_string(),
                id: id.to_string(),
            })?;
        read(&**doc, collection, id)
    }

    /// True if the document exists.
    pub fn contains(&self, collection: &str, id: &str) -> bool {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .collections
            .get(collection)
            .is_some_and(|c| c.contains_key(id))
    }

    /// Deletes a document; returns whether it existed.
    pub fn delete(&self, collection: &str, id: &str) -> bool {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .collections
            .get_mut(collection)
            .is_some_and(|c| c.remove(id).is_some())
    }

    /// Every document in a collection as a `T` (id-sorted), read as
    /// [`DocStore::get`] reads one.
    pub fn scan<T: Clone + 'static>(&self, collection: &str) -> Result<Vec<T>, DocStoreError> {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let Some(coll) = guard.collections.get(collection) else {
            return Ok(Vec::new());
        };
        coll.iter()
            .map(|(id, doc)| read(&**doc, collection, id))
            .collect()
    }

    /// Ids in a collection (sorted).
    pub fn ids(&self, collection: &str) -> Vec<String> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .collections
            .get(collection)
            .map(|c| c.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of documents in a collection.
    pub fn count(&self, collection: &str) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .collections
            .get(collection)
            .map_or(0, |c| c.len())
    }

    /// Names of all collections.
    pub fn collections(&self) -> Vec<String> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .collections
            .keys()
            .cloned()
            .collect()
    }

    /// Serializes the entire store to pretty JSON, every collection and
    /// document in id order: the store's one way out, written and never
    /// read back.
    pub fn snapshot_json(&self) -> Result<String, DocStoreError> {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let view: BTreeMap<&str, BTreeMap<&str, &dyn Doc>> = guard
            .collections
            .iter()
            .map(|(name, docs)| {
                let docs = docs.iter().map(|(id, doc)| (id.as_str(), &**doc)).collect();
                (name.as_str(), docs)
            })
            .collect();
        serde_json::to_string_pretty(&view).map_err(codec)
    }
}

impl fmt::Debug for DocStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        f.debug_map()
            .entries(guard.collections.iter().map(|(k, v)| (k, v.len())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize)]
    struct Doc {
        region: String,
        score: f64,
    }

    fn doc(region: &str, score: f64) -> Doc {
        Doc {
            region: region.into(),
            score,
        }
    }

    #[test]
    fn upsert_get_round_trip() {
        let store = DocStore::new();
        store.upsert("results", "a", &doc("west", 1.0));
        let got: Doc = store.get("results", "a").unwrap();
        assert_eq!(got, doc("west", 1.0));
    }

    #[test]
    fn upsert_replaces() {
        let store = DocStore::new();
        store.upsert("r", "a", &doc("west", 1.0));
        store.upsert("r", "a", &doc("west", 2.0));
        let got: Doc = store.get("r", "a").unwrap();
        assert_eq!(got.score, 2.0);
        assert_eq!(store.count("r"), 1);
    }

    #[test]
    fn missing_document_errors() {
        let store = DocStore::new();
        let err = store.get::<Doc>("r", "nope").unwrap_err();
        assert!(matches!(err, DocStoreError::NotFound { .. }));
        assert!(!store.contains("r", "nope"));
    }

    #[test]
    fn delete_semantics() {
        let store = DocStore::new();
        store.upsert("r", "a", &doc("w", 1.0));
        assert!(store.delete("r", "a"));
        assert!(!store.delete("r", "a"));
        assert!(!store.contains("r", "a"));
    }

    #[test]
    fn scan_typed_and_as_json() {
        let store = DocStore::new();
        store.upsert("r", "a", &doc("west", 1.0));
        store.upsert("r", "b", &doc("east", 2.0));
        store.upsert("r", "c", &doc("west", 3.0));
        let all: Vec<Doc> = store.scan("r").unwrap();
        assert_eq!(all, [doc("west", 1.0), doc("east", 2.0), doc("west", 3.0)]);
        let json: Vec<Value> = store.scan("r").unwrap();
        let west: Vec<&Value> = json.iter().filter(|v| v["region"] == "west").collect();
        assert_eq!(west.len(), 2);
        assert_eq!(west[1]["score"], Value::F64(3.0));
        let none: Vec<Doc> = store.scan("empty").unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn ids_and_collections() {
        let store = DocStore::new();
        store.upsert("beta", "2", &doc("e", 0.0));
        store.upsert("alpha", "1", &doc("w", 0.0));
        assert_eq!(store.collections(), vec!["alpha", "beta"]);
        assert_eq!(store.ids("beta"), vec!["2"]);
    }

    #[test]
    fn concurrent_writers() {
        let store = DocStore::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        store.upsert("c", &format!("{t}-{i}"), &doc("r", i as f64));
                    }
                });
            }
        });
        assert_eq!(store.count("c"), 400);
    }

    #[test]
    fn wrong_type_read_is_a_typed_error() {
        let store = DocStore::new();
        store.upsert("r", "a", &"just a string");
        let wrong = DocStoreError::WrongType {
            collection: "r".into(),
            id: "a".into(),
        };
        assert_eq!(store.get::<Doc>("r", "a"), Err(wrong.clone()));
        assert_eq!(store.scan::<Doc>("r"), Err(wrong));
        assert_eq!(store.get::<&str>("r", "a"), Ok("just a string"));
        assert_eq!(
            store.get::<Value>("r", "a"),
            Ok(Value::from("just a string"))
        );
    }
}

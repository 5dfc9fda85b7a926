//! The inverted index and query evaluator.

use crate::document::{DocId, Document};
use crate::query::Query;
use crate::tokenize::{tokenize, unique_tokens};
use dlhub_sync::RwLock;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Errors from index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// Document ids must be non-empty.
    EmptyId,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyId => write!(f, "document id must be non-empty"),
        }
    }
}

impl std::error::Error for SearchError {}

/// One scored result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Matching document id.
    pub id: DocId,
    /// TF-IDF relevance (1.0 for filter-style queries).
    pub score: f64,
    /// The stored document body.
    pub body: Value,
}

/// Facet counts: `field -> value -> count` across the result set.
pub type Facets = HashMap<String, BTreeMap<String, usize>>;

/// Query response: ranked hits plus optional facets.
#[derive(Debug, Clone, Default)]
pub struct SearchResults {
    /// Hits ordered by descending score, ties broken by id. May be a
    /// page of the full result set (see [`Index::search_paged`]).
    pub hits: Vec<SearchHit>,
    /// Facet counts if requested via [`Index::search_faceted`];
    /// always computed over the *full* visible result set, not the
    /// returned page.
    pub facets: Facets,
    /// Total visible matches before pagination.
    pub total: usize,
}

struct Stored {
    doc: Document,
    /// token -> term frequency over the whole document.
    term_freq: HashMap<String, usize>,
    /// field -> tokens appearing in that field.
    field_tokens: HashMap<String, HashSet<String>>,
    /// field -> numeric values.
    numbers: HashMap<String, Vec<f64>>,
    /// field -> raw string values (for facets / exact value listing).
    strings: HashMap<String, Vec<String>>,
}

#[derive(Default)]
struct State {
    docs: HashMap<DocId, Stored>,
    /// Global inverted index: token -> doc ids.
    postings: HashMap<String, HashSet<DocId>>,
}

/// Thread-safe search index; cheap to clone.
#[derive(Clone, Default)]
pub struct Index {
    state: Arc<RwLock<State>>,
}

impl Index {
    /// Create an empty index.
    pub fn new() -> Self {
        Index::default()
    }

    /// Insert or replace a document.
    pub fn upsert(&self, doc: Document) -> Result<(), SearchError> {
        if doc.id.is_empty() {
            return Err(SearchError::EmptyId);
        }
        let mut stored = Stored {
            doc: doc.clone(),
            term_freq: HashMap::new(),
            field_tokens: HashMap::new(),
            numbers: HashMap::new(),
            strings: HashMap::new(),
        };
        for (path, leaf) in doc.flat_fields() {
            match leaf {
                Value::String(s) => {
                    for token in tokenize(&s) {
                        *stored.term_freq.entry(token.clone()).or_insert(0) += 1;
                        stored
                            .field_tokens
                            .entry(path.clone())
                            .or_default()
                            .insert(token);
                    }
                    stored.strings.entry(path.clone()).or_default().push(s);
                }
                Value::Number(n) => {
                    if let Some(v) = n.as_f64() {
                        stored.numbers.entry(path.clone()).or_default().push(v);
                    }
                }
                Value::Bool(b) => {
                    let token = b.to_string();
                    *stored.term_freq.entry(token.clone()).or_insert(0) += 1;
                    stored
                        .field_tokens
                        .entry(path.clone())
                        .or_default()
                        .insert(token.clone());
                    stored.strings.entry(path.clone()).or_default().push(token);
                }
                Value::Null => {}
                _ => unreachable!("flat_fields yields only leaves"),
            }
        }
        let mut st = self.state.write();
        if st.docs.contains_key(&doc.id) {
            Self::remove_postings(&mut st, &doc.id);
        }
        for token in stored.term_freq.keys() {
            st.postings
                .entry(token.clone())
                .or_default()
                .insert(doc.id.clone());
        }
        st.docs.insert(doc.id.clone(), stored);
        Ok(())
    }

    /// Delete a document; returns true if it existed.
    pub fn delete(&self, id: &str) -> bool {
        let mut st = self.state.write();
        if st.docs.contains_key(id) {
            Self::remove_postings(&mut st, id);
            st.docs.remove(id);
            true
        } else {
            false
        }
    }

    fn remove_postings(st: &mut State, id: &str) {
        let tokens: Vec<String> = st
            .docs
            .get(id)
            .map(|s| s.term_freq.keys().cloned().collect())
            .unwrap_or_default();
        for token in tokens {
            if let Some(set) = st.postings.get_mut(&token) {
                set.remove(id);
                if set.is_empty() {
                    st.postings.remove(&token);
                }
            }
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.state.read().docs.len()
    }

    /// True when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a document body if it exists *and* is visible to the
    /// caller's principals.
    pub fn get(&self, id: &str, principals: &[String]) -> Option<Value> {
        let st = self.state.read();
        let stored = st.docs.get(id)?;
        if visible(&stored.doc, principals) {
            Some(stored.doc.body.clone())
        } else {
            None
        }
    }

    /// Evaluate `query` for a caller holding `principals`.
    pub fn search(&self, query: &Query, principals: &[String]) -> SearchResults {
        self.search_faceted(query, principals, &[])
    }

    /// Evaluate `query` and compute facet counts for `facet_fields`
    /// across the (visible) result set.
    pub fn search_faceted(
        &self,
        query: &Query,
        principals: &[String],
        facet_fields: &[&str],
    ) -> SearchResults {
        let st = self.state.read();
        let scores = eval(&st, query);
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .filter_map(|(id, score)| {
                let stored = st.docs.get(&id)?;
                if visible(&stored.doc, principals) {
                    Some(SearchHit {
                        id,
                        score,
                        body: stored.doc.body.clone(),
                    })
                } else {
                    None
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        let mut facets: Facets = HashMap::new();
        for field in facet_fields {
            let counts = facets.entry(field.to_string()).or_default();
            for hit in &hits {
                if let Some(stored) = st.docs.get(&hit.id) {
                    if let Some(values) = stored.strings.get(*field) {
                        for v in values {
                            *counts.entry(v.clone()).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let total = hits.len();
        SearchResults {
            hits,
            facets,
            total,
        }
    }

    /// Paged search (Elasticsearch `from`/`size`): hits are the
    /// requested window of the ranked, visibility-filtered result
    /// set; `total` reports the full match count.
    pub fn search_paged(
        &self,
        query: &Query,
        principals: &[String],
        offset: usize,
        limit: usize,
    ) -> SearchResults {
        let mut results = self.search(query, principals);
        let end = offset.saturating_add(limit).min(results.hits.len());
        let start = offset.min(results.hits.len());
        results.hits = results.hits[start..end].to_vec();
        results
    }
}

fn visible(doc: &Document, principals: &[String]) -> bool {
    doc.visible_to
        .iter()
        .any(|p| p == "public" || principals.iter().any(|q| q == p))
}

/// Evaluate a query to `doc id -> score`, ignoring visibility (applied
/// by the caller afterwards so boolean semantics stay simple).
fn eval(st: &State, query: &Query) -> HashMap<DocId, f64> {
    match query {
        Query::All => st.docs.keys().map(|id| (id.clone(), 1.0)).collect(),
        Query::FreeText(text) => {
            let n_docs = st.docs.len().max(1) as f64;
            let mut scores: HashMap<DocId, f64> = HashMap::new();
            for term in unique_tokens(text) {
                if let Some(ids) = st.postings.get(&term) {
                    let idf = (n_docs / ids.len() as f64).ln() + 1.0;
                    for id in ids {
                        let tf = st
                            .docs
                            .get(id)
                            .and_then(|d| d.term_freq.get(&term))
                            .copied()
                            .unwrap_or(0) as f64;
                        *scores.entry(id.clone()).or_insert(0.0) += tf * idf;
                    }
                }
            }
            scores
        }
        Query::Match { field, value } => {
            let terms = unique_tokens(value);
            if terms.is_empty() {
                return HashMap::new();
            }
            st.docs
                .iter()
                .filter(|(_, stored)| {
                    stored
                        .field_tokens
                        .get(field)
                        .is_some_and(|toks| terms.iter().all(|t| toks.contains(t)))
                })
                .map(|(id, _)| (id.clone(), 1.0))
                .collect()
        }
        Query::Prefix { field, prefix } => st
            .docs
            .iter()
            .filter(|(_, stored)| match field {
                Some(f) => stored
                    .field_tokens
                    .get(f)
                    .is_some_and(|toks| toks.iter().any(|t| t.starts_with(prefix.as_str()))),
                None => stored
                    .term_freq
                    .keys()
                    .any(|t| t.starts_with(prefix.as_str())),
            })
            .map(|(id, _)| (id.clone(), 1.0))
            .collect(),
        Query::Range { field, min, max } => st
            .docs
            .iter()
            .filter(|(_, stored)| {
                stored.numbers.get(field).is_some_and(|vals| {
                    vals.iter()
                        .any(|v| min.is_none_or(|m| *v >= m) && max.is_none_or(|m| *v <= m))
                })
            })
            .map(|(id, _)| (id.clone(), 1.0))
            .collect(),
        Query::And(queries) => {
            let mut iter = queries.iter();
            let Some(first) = iter.next() else {
                return HashMap::new();
            };
            let mut acc = eval(st, first);
            for q in iter {
                let next = eval(st, q);
                acc.retain(|id, _| next.contains_key(id));
                for (id, score) in acc.iter_mut() {
                    *score += next.get(id).copied().unwrap_or(0.0);
                }
            }
            acc
        }
        Query::Or(queries) => {
            let mut acc: HashMap<DocId, f64> = HashMap::new();
            for q in queries {
                for (id, score) in eval(st, q) {
                    let entry = acc.entry(id).or_insert(0.0);
                    *entry = entry.max(score);
                }
            }
            acc
        }
        Query::Not(inner) => {
            let excluded = eval(st, inner);
            st.docs
                .keys()
                .filter(|id| !excluded.contains_key(*id))
                .map(|id| (id.clone(), 1.0))
                .collect()
        }
    }
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Index").field("docs", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn corpus() -> Index {
        let index = Index::new();
        index
            .upsert(Document::new(
                "inception",
                json!({
                    "title": "Inception v3 image classifier",
                    "model_type": "tensorflow",
                    "domain": "vision",
                    "year": 2015,
                    "accuracy": 0.78,
                }),
                vec!["public".into()],
            ))
            .unwrap();
        index
            .upsert(Document::new(
                "cifar10",
                json!({
                    "title": "CIFAR-10 convolutional network",
                    "model_type": "keras",
                    "domain": "vision",
                    "year": 2017,
                    "accuracy": 0.91,
                }),
                vec!["public".into()],
            ))
            .unwrap();
        index
            .upsert(Document::new(
                "matminer-model",
                json!({
                    "title": "Material stability random forest",
                    "model_type": "scikit-learn",
                    "domain": "materials",
                    "year": 2018,
                    "accuracy": 0.85,
                }),
                vec!["public".into()],
            ))
            .unwrap();
        index
            .upsert(Document::new(
                "candle-drug",
                json!({
                    "title": "CANDLE drug response predictor",
                    "model_type": "keras",
                    "domain": "cancer",
                    "year": 2018,
                }),
                vec!["group:candle".into()],
            ))
            .unwrap();
        index
    }

    const PUBLIC: &[String] = &[];

    fn ids(results: &SearchResults) -> Vec<&str> {
        results.hits.iter().map(|h| h.id.as_str()).collect()
    }

    #[test]
    fn free_text_ranks_by_relevance() {
        let index = corpus();
        let r = index.search(&Query::free_text("image classifier"), PUBLIC);
        assert_eq!(ids(&r), vec!["inception"]);
        assert!(r.hits[0].score > 0.0);
    }

    #[test]
    fn free_text_multiple_hits() {
        let index = corpus();
        let r = index.search(&Query::free_text("network forest"), PUBLIC);
        let mut got = ids(&r);
        got.sort();
        assert_eq!(got, vec!["cifar10", "matminer-model"]);
    }

    #[test]
    fn field_match_restricts_to_field() {
        let index = corpus();
        let r = index.search(&Query::field_match("model_type", "keras"), PUBLIC);
        assert_eq!(ids(&r), vec!["cifar10"]); // candle-drug is restricted
                                              // "keras" never appears in titles:
        let r = index.search(&Query::field_match("title", "keras"), PUBLIC);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn prefix_match_partial_words() {
        let index = corpus();
        let r = index.search(&Query::prefix("incep"), PUBLIC);
        assert_eq!(ids(&r), vec!["inception"]);
        let r = index.search(&Query::prefix_in("model_type", "sci"), PUBLIC);
        assert_eq!(ids(&r), vec!["matminer-model"]);
    }

    #[test]
    fn range_queries() {
        let index = corpus();
        let r = index.search(&Query::range("year", Some(2016.0), None), PUBLIC);
        let mut got = ids(&r);
        got.sort();
        assert_eq!(got, vec!["cifar10", "matminer-model"]);
        let r = index.search(&Query::range("accuracy", Some(0.8), Some(0.9)), PUBLIC);
        assert_eq!(ids(&r), vec!["matminer-model"]);
    }

    #[test]
    fn boolean_composition() {
        let index = corpus();
        let q =
            Query::field_match("domain", "vision").and(Query::range("year", Some(2016.0), None));
        assert_eq!(ids(&index.search(&q, PUBLIC)), vec!["cifar10"]);

        let q =
            Query::field_match("domain", "materials").or(Query::field_match("domain", "vision"));
        let r = index.search(&q, PUBLIC);
        let mut got = ids(&r);
        got.sort();
        assert_eq!(got, vec!["cifar10", "inception", "matminer-model"]);

        let q = Query::field_match("domain", "vision").not();
        assert_eq!(ids(&index.search(&q, PUBLIC)), vec!["matminer-model"]);
    }

    #[test]
    fn acl_hides_restricted_documents() {
        let index = corpus();
        // Anonymous caller cannot see the CANDLE model even with All.
        let r = index.search(&Query::All, PUBLIC);
        assert_eq!(r.hits.len(), 3);
        // A CANDLE group member sees it.
        let candle = vec!["group:candle".to_string()];
        let r = index.search(&Query::All, &candle);
        assert_eq!(r.hits.len(), 4);
        // get() enforces the same rule.
        assert!(index.get("candle-drug", PUBLIC).is_none());
        assert!(index.get("candle-drug", &candle).is_some());
    }

    #[test]
    fn facets_count_visible_only() {
        let index = corpus();
        let r = index.search_faceted(&Query::All, PUBLIC, &["model_type"]);
        let counts = &r.facets["model_type"];
        assert_eq!(counts.get("keras"), Some(&1)); // restricted keras doc excluded
        assert_eq!(counts.get("tensorflow"), Some(&1));
        assert_eq!(counts.get("scikit-learn"), Some(&1));
        let candle = vec!["group:candle".to_string()];
        let r = index.search_faceted(&Query::All, &candle, &["model_type"]);
        assert_eq!(r.facets["model_type"].get("keras"), Some(&2));
    }

    #[test]
    fn upsert_replaces_old_tokens() {
        let index = corpus();
        index
            .upsert(Document::new(
                "inception",
                json!({"title": "renamed model"}),
                vec!["public".into()],
            ))
            .unwrap();
        assert!(index
            .search(&Query::free_text("image"), PUBLIC)
            .hits
            .is_empty());
        assert_eq!(
            ids(&index.search(&Query::free_text("renamed"), PUBLIC)),
            vec!["inception"]
        );
        assert_eq!(index.len(), 4);
    }

    #[test]
    fn delete_removes_document() {
        let index = corpus();
        assert!(index.delete("cifar10"));
        assert!(!index.delete("cifar10"));
        assert!(index
            .search(&Query::free_text("cifar"), PUBLIC)
            .hits
            .is_empty());
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn empty_id_rejected() {
        let index = Index::new();
        assert_eq!(
            index.upsert(Document::new("", json!({}), vec![])),
            Err(SearchError::EmptyId)
        );
    }

    #[test]
    fn empty_and_matches_nothing() {
        let index = corpus();
        assert!(index.search(&Query::And(vec![]), PUBLIC).hits.is_empty());
    }

    #[test]
    fn idf_prefers_rare_terms() {
        let index = Index::new();
        for i in 0..10 {
            index
                .upsert(Document::new(
                    format!("common-{i}"),
                    json!({"text": "model"}),
                    vec!["public".into()],
                ))
                .unwrap();
        }
        index
            .upsert(Document::new(
                "rare",
                json!({"text": "model spectroscopy"}),
                vec!["public".into()],
            ))
            .unwrap();
        let r = index.search(&Query::free_text("model spectroscopy"), PUBLIC);
        assert_eq!(r.hits[0].id, "rare");
    }

    #[test]
    fn pagination_windows_the_ranked_results() {
        let index = Index::new();
        for i in 0..25 {
            index
                .upsert(Document::new(
                    format!("doc-{i:02}"),
                    json!({"title": "paged result"}),
                    vec!["public".into()],
                ))
                .unwrap();
        }
        let page1 = index.search_paged(&Query::free_text("paged"), PUBLIC, 0, 10);
        let page2 = index.search_paged(&Query::free_text("paged"), PUBLIC, 10, 10);
        let page3 = index.search_paged(&Query::free_text("paged"), PUBLIC, 20, 10);
        assert_eq!(page1.total, 25);
        assert_eq!(page1.hits.len(), 10);
        assert_eq!(page2.hits.len(), 10);
        assert_eq!(page3.hits.len(), 5);
        // Pages are disjoint and cover everything.
        let mut all: Vec<&str> = page1
            .hits
            .iter()
            .chain(&page2.hits)
            .chain(&page3.hits)
            .map(|h| h.id.as_str())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 25);
        // Out-of-range pages are empty but still report the total.
        let beyond = index.search_paged(&Query::free_text("paged"), PUBLIC, 100, 10);
        assert!(beyond.hits.is_empty());
        assert_eq!(beyond.total, 25);
    }

    #[test]
    fn bool_values_are_searchable() {
        let index = Index::new();
        index
            .upsert(Document::new(
                "d",
                json!({"servable": true}),
                vec!["public".into()],
            ))
            .unwrap();
        let r = index.search(&Query::field_match("servable", "true"), PUBLIC);
        assert_eq!(r.hits.len(), 1);
    }
}

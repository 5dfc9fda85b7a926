//! Servables: the common execution interface, their metadata schema,
//! and the paper's six built-in evaluation servables.
//!
//! "DLHub automatically converts each published model into a
//! 'servable' — an executable DLHub container that implements a
//! standard execution interface" (§IV). The standard interface here is
//! the [`Servable`] trait; metadata follows the publication schema of
//! §IV-A.

pub mod builtins;

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Supported model families (Table II: "DLHub … can store and serve
/// any Python 3-compatible model or processing function").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelType {
    /// TensorFlow servables (eligible for the TF-Serving executor).
    TensorFlow,
    /// Keras models.
    Keras,
    /// Scikit-learn estimators.
    ScikitLearn,
    /// Arbitrary processing functions (the "Python function" analogue).
    PythonFunction,
    /// A multi-servable pipeline definition.
    Pipeline,
}

impl fmt::Display for ModelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelType::TensorFlow => "tensorflow",
            ModelType::Keras => "keras",
            ModelType::ScikitLearn => "scikit-learn",
            ModelType::PythonFunction => "python-function",
            ModelType::Pipeline => "pipeline",
        };
        f.write_str(s)
    }
}

/// Declared input/output types, used to validate requests before
/// dispatch and to drive the MDF-style "applicable model" matching
/// (§VI-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TypeDesc {
    /// No payload.
    Null,
    /// Text.
    String,
    /// Raw bytes.
    Bytes,
    /// A tensor; `Some(shape)` pins exact dimensions.
    Tensor(Option<Vec<usize>>),
    /// A float scalar (integers coerce).
    Float,
    /// A list of anything.
    List,
    /// Free-form JSON.
    Json,
    /// Anything.
    Any,
}

impl TypeDesc {
    /// Does `value` satisfy this descriptor?
    pub fn matches(&self, value: &Value) -> bool {
        match (self, value) {
            (TypeDesc::Any, _) => true,
            (TypeDesc::Null, Value::Null) => true,
            (TypeDesc::String, Value::Str(_)) => true,
            (TypeDesc::Bytes, Value::Bytes(_)) => true,
            (TypeDesc::Tensor(None), Value::Tensor { .. }) => true,
            (TypeDesc::Tensor(Some(want)), Value::Tensor { shape, .. }) => want == shape,
            (TypeDesc::Float, Value::Float(_) | Value::Int(_)) => true,
            (TypeDesc::List, Value::List(_)) => true,
            (TypeDesc::Json, Value::Json(_)) => true,
            _ => false,
        }
    }

    /// Short name used in metadata documents.
    pub fn descriptor(&self) -> String {
        match self {
            TypeDesc::Null => "null".into(),
            TypeDesc::String => "string".into(),
            TypeDesc::Bytes => "bytes".into(),
            TypeDesc::Tensor(None) => "tensor".into(),
            TypeDesc::Tensor(Some(shape)) => format!(
                "tensor[{}]",
                shape
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            TypeDesc::Float => "float".into(),
            TypeDesc::List => "list".into(),
            TypeDesc::Json => "json".into(),
            TypeDesc::Any => "any".into(),
        }
    }
}

/// Publication metadata, after the DLHub model schema (§IV-A):
/// standard publication fields plus ML-specific fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServableMetadata {
    /// Short model name (unique per owner).
    pub name: String,
    /// Owner as a qualified identity (`user@provider`).
    pub owner: String,
    /// Human description.
    pub description: String,
    /// Author list for citation.
    pub authors: Vec<String>,
    /// Science domain (e.g. `materials science`, `vision`).
    pub domain: String,
    /// Model family.
    pub model_type: ModelType,
    /// Declared input type.
    pub input_type: TypeDesc,
    /// Declared output type.
    pub output_type: TypeDesc,
    /// Pinned software dependencies `(package, version)`.
    pub dependencies: Vec<(String, String)>,
    /// Free-form discovery tags.
    pub tags: Vec<String>,
    /// Publication year.
    pub year: u32,
}

impl ServableMetadata {
    /// Minimal valid metadata for `name` owned by `owner`.
    pub fn new(name: impl Into<String>, owner: impl Into<String>, model_type: ModelType) -> Self {
        ServableMetadata {
            name: name.into(),
            owner: owner.into(),
            description: String::new(),
            authors: Vec::new(),
            domain: String::new(),
            model_type,
            input_type: TypeDesc::Any,
            output_type: TypeDesc::Any,
            dependencies: Vec::new(),
            tags: Vec::new(),
            year: 2019,
        }
    }

    /// The servable identifier: `owner-username/name`.
    pub fn id(&self) -> String {
        let user = self.owner.split('@').next().unwrap_or(&self.owner);
        format!("{user}/{}", self.name)
    }

    /// Render as the JSON document indexed by the search service.
    pub fn to_search_document(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name,
            "owner": self.owner,
            "description": self.description,
            "authors": self.authors,
            "domain": self.domain,
            "model_type": self.model_type.to_string(),
            "input_type": self.input_type.descriptor(),
            "output_type": self.output_type.descriptor(),
            "tags": self.tags,
            "year": self.year,
        })
    }
}

/// The standard execution interface every published model implements.
///
/// Implementations must be thread-safe: the Parsl executor runs one
/// instance from many replica workers concurrently (real DLHub runs n
/// container replicas; we share one immutable model).
pub trait Servable: Send + Sync {
    /// Execute the servable on one input.
    ///
    /// Errors are strings (a Python traceback analogue); the serving
    /// layer wraps them in [`crate::DlhubError::Execution`].
    fn run(&self, input: &Value) -> Result<Value, String>;

    /// Execute the servable on a block of inputs — one replica's share
    /// of a batch. The contract: one result per input, in input order,
    /// each what [`Servable::run`] gives that input alone (a cached
    /// single result and a batched one are interchangeable).
    ///
    /// The default loops over `run`; a servable whose inputs can share
    /// work across a block overrides it.
    fn run_many(&self, inputs: &[Value]) -> Vec<Result<Value, String>> {
        inputs.iter().map(|input| self.run(input)).collect()
    }
}

/// A servable wrapping a plain function — the "any Python
/// 3-compatible … processing function" case that distinguishes DLHub
/// from model-only systems (Table II).
pub struct FnServable<F>(pub F);

impl<F> Servable for FnServable<F>
where
    F: Fn(&Value) -> Result<Value, String> + Send + Sync,
{
    fn run(&self, input: &Value) -> Result<Value, String> {
        (self.0)(input)
    }
}

/// Convenience: box a closure as a shared servable.
pub fn servable_fn<F>(f: F) -> Arc<dyn Servable>
where
    F: Fn(&Value) -> Result<Value, String> + Send + Sync + 'static,
{
    Arc::new(FnServable(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn type_desc_matching() {
        assert!(TypeDesc::Any.matches(&Value::Null));
        assert!(TypeDesc::String.matches(&Value::Str("x".into())));
        assert!(!TypeDesc::String.matches(&Value::Int(1)));
        assert!(TypeDesc::Float.matches(&Value::Int(1)));
        let shaped = TypeDesc::Tensor(Some(vec![3, 32, 32]));
        assert!(shaped.matches(&Value::Tensor {
            shape: vec![3, 32, 32],
            data: vec![0.0; 3 * 32 * 32],
        }));
        assert!(!shaped.matches(&Value::Tensor {
            shape: vec![3, 16, 16],
            data: vec![0.0; 3 * 16 * 16],
        }));
        assert!(TypeDesc::Tensor(None).matches(&Value::Tensor {
            shape: vec![2],
            data: vec![0.0; 2],
        }));
    }

    #[test]
    fn descriptors_render() {
        assert_eq!(
            TypeDesc::Tensor(Some(vec![3, 2])).descriptor(),
            "tensor[3x2]"
        );
        assert_eq!(TypeDesc::Json.descriptor(), "json");
    }

    #[test]
    fn metadata_id_strips_provider() {
        let m = ServableMetadata::new("inception", "logan@uchicago.edu", ModelType::TensorFlow);
        assert_eq!(m.id(), "logan/inception");
    }

    #[test]
    fn search_document_contains_key_fields() {
        let mut m = ServableMetadata::new("m", "u@p", ModelType::Keras);
        m.domain = "vision".into();
        m.tags = vec!["cnn".into()];
        let doc = m.to_search_document();
        assert_eq!(doc["model_type"], "keras");
        assert_eq!(doc["domain"], "vision");
        assert_eq!(doc["tags"][0], "cnn");
    }

    #[test]
    fn fn_servable_runs() {
        let s = servable_fn(|v| Ok(Value::Str(format!("got {v}"))));
        assert_eq!(s.run(&Value::Int(3)).unwrap(), Value::Str("got 3".into()));
        let failing = servable_fn(|_| Err("nope".into()));
        assert_eq!(failing.run(&Value::Null).unwrap_err(), "nope");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            "\\PC{0,8}".prop_map(Value::Str),
            proptest::collection::vec(-4.0f32..4.0, 0..6).prop_map(|data| Value::Tensor {
                shape: vec![data.len()],
                data,
            }),
            proptest::collection::vec(any::<i64>().prop_map(Value::Int), 0..4)
                .prop_map(Value::List),
        ]
    }

    proptest! {
        /// The default `run_many` is `run` mapped over the block, for a
        /// servable that answers some inputs and refuses others.
        #[test]
        fn default_run_many_is_mapped_run(inputs in proptest::collection::vec(arb_value(), 0..12)) {
            let picky = servable_fn(|v| match v {
                Value::Int(i) if i % 3 == 0 => Err(format!("refused {i}")),
                Value::Null => Err("null".into()),
                other => Ok(Value::List(vec![other.clone(), Value::Str(other.to_string())])),
            });
            let mapped: Vec<_> = inputs.iter().map(|input| picky.run(input)).collect();
            prop_assert_eq!(picky.run_many(&inputs), mapped);
        }
    }

    #[test]
    fn metadata_serializes() {
        let m = ServableMetadata::new("m", "u@p", ModelType::ScikitLearn);
        let s = serde_json::to_string(&m).unwrap();
        let back: ServableMetadata = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }
}

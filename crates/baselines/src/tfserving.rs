//! TensorFlow Serving (§III-B.2): "high performance serving via gRPC
//! and REST APIs … capable of simultaneously serving many models, with
//! many versions, at scale", but "limited in terms of its support for
//! custom transformation codes" — it only accepts models exportable as
//! TensorFlow servables, and offers no pipelines.

use crate::protocol::{decode, encode, Protocol};
use dlhub_core::servable::ModelType;
use dlhub_core::{Servable, Value};
use dlhub_sync::RwLock;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from the model server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TfServingError {
    /// Model type is not exportable as a TensorFlow servable.
    NotAServable(String),
    /// Unknown model name.
    NoSuchModel(String),
    /// Unknown version of a known model.
    NoSuchVersion(String, u32),
    /// The servable itself failed.
    Execution(String),
    /// Protocol encode/decode failure.
    Protocol(String),
}

impl std::fmt::Display for TfServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TfServingError::NotAServable(t) => {
                write!(f, "model type {t} cannot be exported as a TF servable")
            }
            TfServingError::NoSuchModel(m) => write!(f, "no such model: {m}"),
            TfServingError::NoSuchVersion(m, v) => write!(f, "no version {v} of {m}"),
            TfServingError::Execution(e) => write!(f, "execution failed: {e}"),
            TfServingError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for TfServingError {}

struct ModelEntry {
    versions: BTreeMap<u32, Arc<dyn Servable>>,
}

/// The `tensorflow_model_server` analogue.
pub struct TensorFlowModelServer {
    models: RwLock<HashMap<String, ModelEntry>>,
}

impl TensorFlowModelServer {
    /// Start an empty server.
    pub fn new() -> Self {
        TensorFlowModelServer {
            models: RwLock::new(HashMap::new()),
        }
    }

    /// Load a model version. Only TensorFlow-exportable model types
    /// are accepted (Table II: "TF Servables").
    pub fn load_model(
        &self,
        name: &str,
        version: u32,
        model_type: ModelType,
        servable: Arc<dyn Servable>,
    ) -> Result<(), TfServingError> {
        if !matches!(model_type, ModelType::TensorFlow | ModelType::Keras) {
            return Err(TfServingError::NotAServable(model_type.to_string()));
        }
        let mut models = self.models.write();
        models
            .entry(name.to_string())
            .or_insert_with(|| ModelEntry {
                versions: BTreeMap::new(),
            })
            .versions
            .insert(version, servable);
        Ok(())
    }

    /// Unload one version; removes the model entirely when its last
    /// version goes.
    pub fn unload_version(&self, name: &str, version: u32) -> Result<(), TfServingError> {
        let mut models = self.models.write();
        let entry = models
            .get_mut(name)
            .ok_or_else(|| TfServingError::NoSuchModel(name.to_string()))?;
        if entry.versions.remove(&version).is_none() {
            return Err(TfServingError::NoSuchVersion(name.to_string(), version));
        }
        if entry.versions.is_empty() {
            models.remove(name);
        }
        Ok(())
    }

    /// Loaded models and their version lists.
    pub fn model_status(&self) -> Vec<(String, Vec<u32>)> {
        let models = self.models.read();
        let mut out: Vec<(String, Vec<u32>)> = models
            .iter()
            .map(|(name, entry)| (name.clone(), entry.versions.keys().copied().collect()))
            .collect();
        out.sort();
        out
    }

    fn resolve(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<Arc<dyn Servable>, TfServingError> {
        let models = self.models.read();
        let entry = models
            .get(name)
            .ok_or_else(|| TfServingError::NoSuchModel(name.to_string()))?;
        match version {
            Some(v) => entry
                .versions
                .get(&v)
                .cloned()
                .ok_or(TfServingError::NoSuchVersion(name.to_string(), v)),
            None => Ok(entry
                .versions
                .values()
                .next_back()
                .cloned()
                .expect("entries never empty")),
        }
    }

    /// Serve one request over the chosen protocol: the payload is
    /// decoded, run against the requested (or latest) version, and the
    /// response re-encoded — the real encode/run/encode path a client
    /// of `tensorflow_model_server` exercises.
    pub fn predict(
        &self,
        protocol: Protocol,
        name: &str,
        version: Option<u32>,
        request_payload: &[u8],
    ) -> Result<Vec<u8>, TfServingError> {
        let servable = self.resolve(name, version)?;
        let input = decode(protocol, request_payload).map_err(TfServingError::Protocol)?;
        let output = servable.run(&input).map_err(TfServingError::Execution)?;
        encode(protocol, &output).map_err(TfServingError::Protocol)
    }

    /// Convenience: predict with in-memory values (encodes, serves,
    /// decodes — still paying the protocol cost).
    pub fn predict_value(
        &self,
        protocol: Protocol,
        name: &str,
        version: Option<u32>,
        input: &Value,
    ) -> Result<Value, TfServingError> {
        let payload = encode(protocol, input).map_err(TfServingError::Protocol)?;
        let response = self.predict(protocol, name, version, &payload)?;
        decode(protocol, &response).map_err(TfServingError::Protocol)
    }
}

impl Default for TensorFlowModelServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_core::servable::servable_fn;

    fn echo() -> Arc<dyn Servable> {
        servable_fn(|v| Ok(v.clone()))
    }

    fn constant(i: i64) -> Arc<dyn Servable> {
        servable_fn(move |_| Ok(Value::Int(i)))
    }

    #[test]
    fn serves_grpc_and_rest() {
        let server = TensorFlowModelServer::new();
        server
            .load_model("cifar10", 1, ModelType::Keras, echo())
            .unwrap();
        for protocol in [Protocol::Grpc, Protocol::Rest] {
            let out = server
                .predict_value(protocol, "cifar10", None, &Value::Int(9))
                .unwrap();
            assert_eq!(out, Value::Int(9));
        }
    }

    #[test]
    fn rejects_non_tf_models() {
        let server = TensorFlowModelServer::new();
        for bad in [ModelType::ScikitLearn, ModelType::PythonFunction] {
            assert!(matches!(
                server.load_model("m", 1, bad, echo()),
                Err(TfServingError::NotAServable(_))
            ));
        }
    }

    #[test]
    fn multiple_versions_latest_wins_by_default() {
        let server = TensorFlowModelServer::new();
        server
            .load_model("m", 1, ModelType::TensorFlow, constant(1))
            .unwrap();
        server
            .load_model("m", 2, ModelType::TensorFlow, constant(2))
            .unwrap();
        let latest = server
            .predict_value(Protocol::Grpc, "m", None, &Value::Null)
            .unwrap();
        assert_eq!(latest, Value::Int(2));
        let pinned = server
            .predict_value(Protocol::Grpc, "m", Some(1), &Value::Null)
            .unwrap();
        assert_eq!(pinned, Value::Int(1));
        assert_eq!(server.model_status(), vec![("m".to_string(), vec![1, 2])]);
    }

    #[test]
    fn unload_removes_versions_then_model() {
        let server = TensorFlowModelServer::new();
        server
            .load_model("m", 1, ModelType::TensorFlow, constant(1))
            .unwrap();
        server
            .load_model("m", 2, ModelType::TensorFlow, constant(2))
            .unwrap();
        server.unload_version("m", 2).unwrap();
        assert_eq!(
            server
                .predict_value(Protocol::Grpc, "m", None, &Value::Null)
                .unwrap(),
            Value::Int(1)
        );
        server.unload_version("m", 1).unwrap();
        assert!(matches!(
            server.predict_value(Protocol::Grpc, "m", None, &Value::Null),
            Err(TfServingError::NoSuchModel(_))
        ));
        assert!(matches!(
            server.unload_version("m", 1),
            Err(TfServingError::NoSuchModel(_))
        ));
    }

    #[test]
    fn missing_model_and_version_errors() {
        let server = TensorFlowModelServer::new();
        assert!(matches!(
            server.predict_value(Protocol::Rest, "ghost", None, &Value::Null),
            Err(TfServingError::NoSuchModel(_))
        ));
        server
            .load_model("m", 1, ModelType::TensorFlow, echo())
            .unwrap();
        assert!(matches!(
            server.predict_value(Protocol::Rest, "m", Some(9), &Value::Null),
            Err(TfServingError::NoSuchVersion(_, 9))
        ));
    }

    #[test]
    fn execution_errors_surface() {
        let server = TensorFlowModelServer::new();
        server
            .load_model(
                "bad",
                1,
                ModelType::TensorFlow,
                servable_fn(|_| Err("tensor shape mismatch".into())),
            )
            .unwrap();
        assert!(matches!(
            server.predict_value(Protocol::Grpc, "bad", None, &Value::Null),
            Err(TfServingError::Execution(_))
        ));
    }
}

//! Built-in servable kinds instantiable by name.
//!
//! The real DLHub builds servables from uploaded Python code; this
//! reproduction cannot execute arbitrary code, so the CLI and REST
//! publication paths instead instantiate one of the named built-in
//! implementations (see DESIGN.md, "Substitutions"). The set covers
//! every servable the paper evaluates plus generic test functions.

use dlhub_core::servable::builtins::{
    ImageClassifier, MatminerFeaturize, MatminerModel, MatminerUtil, NoopServable,
};
use dlhub_core::servable::{deferred, servable_fn, ModelType, Servable, TypeDesc};
use dlhub_core::value::Value;
use std::sync::Arc;

/// Kind names accepted by [`instantiate`].
pub const KINDS: [&str; 7] = [
    "noop",
    "echo",
    "matminer-util",
    "matminer-featurize",
    "matminer-model",
    "inception",
    "cifar10",
];

/// Instantiate a built-in servable kind, returning the implementation
/// plus its canonical model type and input/output descriptors. The
/// model kinds are deferred: the model is built on its first deploy.
pub fn instantiate(
    kind: &str,
) -> Result<(Arc<dyn Servable>, ModelType, TypeDesc, TypeDesc), String> {
    match kind {
        "noop" => Ok((
            Arc::new(NoopServable),
            ModelType::PythonFunction,
            TypeDesc::Any,
            TypeDesc::String,
        )),
        "echo" => Ok((
            servable_fn(|v: &Value| Ok(v.clone())),
            ModelType::PythonFunction,
            TypeDesc::Any,
            TypeDesc::Any,
        )),
        "matminer-util" => Ok((
            Arc::new(MatminerUtil),
            ModelType::PythonFunction,
            TypeDesc::String,
            TypeDesc::Json,
        )),
        "matminer-featurize" => Ok((
            Arc::new(MatminerFeaturize),
            ModelType::PythonFunction,
            TypeDesc::Json,
            TypeDesc::Tensor(None),
        )),
        "matminer-model" => Ok((
            deferred(|| MatminerModel::train(7)),
            ModelType::ScikitLearn,
            TypeDesc::Tensor(None),
            TypeDesc::Float,
        )),
        "inception" => Ok((
            deferred(|| ImageClassifier::inception(7)),
            ModelType::TensorFlow,
            TypeDesc::Tensor(None),
            TypeDesc::List,
        )),
        "cifar10" => Ok((
            deferred(|| ImageClassifier::cifar10(7)),
            ModelType::Keras,
            TypeDesc::Tensor(None),
            TypeDesc::List,
        )),
        other => Err(format!(
            "unknown servable kind: {other} (known: {})",
            KINDS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_kind_instantiates() {
        for kind in KINDS {
            let (servable, _, input, _) = instantiate(kind).unwrap();
            // Every kind can be exercised with an input matching its
            // descriptor (Any/String cases here; tensor kinds are
            // covered by their own builtin tests).
            match input {
                TypeDesc::Any => {
                    servable.run(&Value::Null).unwrap();
                }
                TypeDesc::String => {
                    servable.run(&Value::Str("NaCl".into())).unwrap();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn unknown_kind_lists_alternatives() {
        let Err(err) = instantiate("quantum-annealer") else {
            panic!("unknown kind must fail");
        };
        assert!(err.contains("cifar10"));
    }
}

//! SageMaker (§III-B.3): a hosted platform that "supports both the
//! training of models and the deployment of trained models as Docker
//! containers for serving … trained models can be exported as Docker
//! containers for local deployment."

use crate::protocol::{decode, encode, Protocol};
use dlhub_container::{Image, ImageBuilder, Recipe};
use dlhub_core::servable::servable_fn;
use dlhub_core::{Servable, Value};
use dlhub_matsci::forest::{ForestConfig, RandomForest};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// SageMaker API errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SageMakerError {
    /// Unknown model name.
    NoSuchModel(String),
    /// Unknown endpoint name.
    NoSuchEndpoint(String),
    /// Training input malformed.
    Training(String),
    /// The model failed while serving.
    Execution(String),
    /// Name collision.
    AlreadyExists(String),
}

impl std::fmt::Display for SageMakerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SageMakerError::NoSuchModel(m) => write!(f, "no such model: {m}"),
            SageMakerError::NoSuchEndpoint(e) => write!(f, "no such endpoint: {e}"),
            SageMakerError::Training(m) => write!(f, "training failed: {m}"),
            SageMakerError::Execution(m) => write!(f, "invocation failed: {m}"),
            SageMakerError::AlreadyExists(n) => write!(f, "already exists: {n}"),
        }
    }
}

impl std::error::Error for SageMakerError {}

/// A labelled training set for the built-in algorithm.
#[derive(Debug, Clone)]
pub struct TrainingData {
    /// Row-major feature matrix.
    pub features: Vec<Vec<f64>>,
    /// Targets, one per row.
    pub targets: Vec<f64>,
}

struct Endpoint {
    model: String,
    instances: usize,
    invocations: u64,
}

/// The hosted SageMaker service.
pub struct SageMaker {
    models: RwLock<HashMap<String, Arc<dyn Servable>>>,
    endpoints: RwLock<HashMap<String, Endpoint>>,
    builder: Mutex<ImageBuilder>,
}

impl SageMaker {
    /// Start the service.
    pub fn new() -> Self {
        SageMaker {
            models: RwLock::new(HashMap::new()),
            endpoints: RwLock::new(HashMap::new()),
            builder: Mutex::new(ImageBuilder::new()),
        }
    }

    /// `CreateModel`: register a pre-trained model ("integrate their
    /// own algorithms").
    pub fn create_model(
        &self,
        name: &str,
        servable: Arc<dyn Servable>,
    ) -> Result<(), SageMakerError> {
        let mut models = self.models.write();
        if models.contains_key(name) {
            return Err(SageMakerError::AlreadyExists(name.to_string()));
        }
        models.insert(name.to_string(), servable);
        Ok(())
    }

    /// `CreateTrainingJob` with the built-in random-forest algorithm
    /// ("ML algorithms that are optimized for distributed
    /// environments" — our forest trains its trees in parallel).
    /// Produces a registered model named `model_name`.
    pub fn create_training_job(
        &self,
        model_name: &str,
        data: &TrainingData,
        seed: u64,
    ) -> Result<(), SageMakerError> {
        if data.features.is_empty() || data.features.len() != data.targets.len() {
            return Err(SageMakerError::Training(
                "training set is empty or misaligned".into(),
            ));
        }
        let width = data.features[0].len();
        if data.features.iter().any(|r| r.len() != width) {
            return Err(SageMakerError::Training("ragged feature rows".into()));
        }
        let forest = RandomForest::fit(
            &data.features,
            &data.targets,
            &ForestConfig {
                n_trees: 30,
                seed,
                ..ForestConfig::default()
            },
        );
        let servable = servable_fn(move |input: &Value| {
            let tensor = input
                .to_tensor()
                .ok_or_else(|| "expected a feature tensor".to_string())?;
            let features: Vec<f64> = tensor.data().iter().map(|v| *v as f64).collect();
            Ok(Value::Float(forest.predict(&features)))
        });
        self.create_model(model_name, servable)
    }

    /// `CreateTrainingJob` with the built-in image-classification
    /// algorithm: trains a small CNN (conv → ReLU → pool → dense) by
    /// SGD with momentum on labelled image tensors and registers the
    /// frozen network as a model. Returns the final training accuracy.
    pub fn create_cnn_training_job(
        &self,
        model_name: &str,
        input_shape: Vec<usize>,
        n_classes: usize,
        data: &[(dlhub_core::tensor::Tensor, usize)],
        epochs: usize,
        seed: u64,
    ) -> Result<f64, SageMakerError> {
        use dlhub_core::tensor::{layer::Layer, Trainable};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        if data.is_empty() {
            return Err(SageMakerError::Training("empty training set".into()));
        }
        if input_shape.len() != 3 {
            return Err(SageMakerError::Training("input shape must be CHW".into()));
        }
        if data
            .iter()
            .any(|(x, label)| x.shape() != input_shape || *label >= n_classes)
        {
            return Err(SageMakerError::Training(
                "example shape or label out of range".into(),
            ));
        }
        let (c, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
        if h < 2 || w < 2 {
            return Err(SageMakerError::Training("image too small".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand_vec = |n: usize, scale: f32| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        let filters = 8usize;
        let pooled = (h / 2) * (w / 2) * filters;
        let mut net = Trainable::new(
            input_shape.clone(),
            vec![
                Layer::Conv2d {
                    weights: rand_vec(filters * c * 9, 0.3),
                    bias: vec![0.0; filters],
                    c_out: filters,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    padding: 1,
                },
                Layer::ReLU,
                Layer::MaxPool { size: 2, stride: 2 },
                Layer::Flatten,
                Layer::Dense {
                    // Input-major; the draws are i.i.d., so any order fills it.
                    weights: rand_vec(pooled * n_classes, 0.15),
                    bias: vec![0.0; n_classes],
                    out: n_classes,
                    input: pooled,
                },
            ],
        )
        .map_err(|e| SageMakerError::Training(e.to_string()))?;
        net.fit(data, epochs, 16, 0.1, 0.9)
            .map_err(|e| SageMakerError::Training(e.to_string()))?;
        let accuracy = net.accuracy(data);
        let network = net.into_network(model_name.to_string());
        let servable = servable_fn(move |input: &Value| {
            let tensor = input
                .to_tensor()
                .ok_or_else(|| "expected an image tensor".to_string())?;
            let probs = network.forward(tensor);
            let class = probs.argmax().ok_or("empty output")?;
            Ok(Value::Json(serde_json::json!({
                "class": class,
                "probability": probs.data()[class],
            })))
        });
        self.create_model(model_name, servable)?;
        Ok(accuracy)
    }

    /// `CreateEndpoint`: deploy a model behind a named endpoint with
    /// an instance count.
    pub fn create_endpoint(
        &self,
        endpoint: &str,
        model: &str,
        instances: usize,
    ) -> Result<(), SageMakerError> {
        if !self.models.read().contains_key(model) {
            return Err(SageMakerError::NoSuchModel(model.to_string()));
        }
        let mut endpoints = self.endpoints.write();
        if endpoints.contains_key(endpoint) {
            return Err(SageMakerError::AlreadyExists(endpoint.to_string()));
        }
        endpoints.insert(
            endpoint.to_string(),
            Endpoint {
                model: model.to_string(),
                instances: instances.max(1),
                invocations: 0,
            },
        );
        Ok(())
    }

    /// `InvokeEndpoint`: the Flask path — JSON in, JSON out.
    pub fn invoke_endpoint(&self, endpoint: &str, input: &Value) -> Result<Value, SageMakerError> {
        let model = {
            let mut endpoints = self.endpoints.write();
            let ep = endpoints
                .get_mut(endpoint)
                .ok_or_else(|| SageMakerError::NoSuchEndpoint(endpoint.to_string()))?;
            ep.invocations += 1;
            ep.model.clone()
        };
        let servable = self
            .models
            .read()
            .get(&model)
            .cloned()
            .ok_or(SageMakerError::NoSuchModel(model))?;
        // Flask interface: HTTP JSON body in, JSON response out.
        let body = encode(Protocol::Rest, input).map_err(SageMakerError::Execution)?;
        let decoded = decode(Protocol::Rest, &body).map_err(SageMakerError::Execution)?;
        let output = servable.run(&decoded).map_err(SageMakerError::Execution)?;
        let response = encode(Protocol::Rest, &output).map_err(SageMakerError::Execution)?;
        decode(Protocol::Rest, &response).map_err(SageMakerError::Execution)
    }

    /// Endpoint bookkeeping: `(model, instances, invocations)`.
    pub fn describe_endpoint(
        &self,
        endpoint: &str,
    ) -> Result<(String, usize, u64), SageMakerError> {
        let endpoints = self.endpoints.read();
        let ep = endpoints
            .get(endpoint)
            .ok_or_else(|| SageMakerError::NoSuchEndpoint(endpoint.to_string()))?;
        Ok((ep.model.clone(), ep.instances, ep.invocations))
    }

    /// Export a model as a Docker container "for local deployment".
    pub fn export_container(&self, model: &str) -> Result<Image, SageMakerError> {
        if !self.models.read().contains_key(model) {
            return Err(SageMakerError::NoSuchModel(model.to_string()));
        }
        let mut recipe = Recipe::from_base("sagemaker/base:1.0");
        recipe.add_file(format!("{model}.artifact"), model.as_bytes().to_vec());
        recipe.entrypoint("serve");
        Ok(self.builder.lock().build(&recipe))
    }
}

impl Default for SageMaker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_training() -> TrainingData {
        // y = x0 + 2*x1 on a grid.
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for a in 0..10 {
            for b in 0..10 {
                features.push(vec![a as f64, b as f64]);
                targets.push(a as f64 + 2.0 * b as f64);
            }
        }
        TrainingData { features, targets }
    }

    #[test]
    fn train_deploy_invoke_cycle() {
        let sm = SageMaker::new();
        sm.create_training_job("rf", &toy_training(), 1).unwrap();
        sm.create_endpoint("prod", "rf", 2).unwrap();
        let out = sm
            .invoke_endpoint(
                "prod",
                &Value::Tensor {
                    shape: vec![2],
                    data: vec![5.0, 5.0],
                },
            )
            .unwrap();
        match out {
            // True value is 15; the forest should be close.
            Value::Float(v) => assert!((v - 15.0).abs() < 3.0, "prediction {v}"),
            other => panic!("unexpected {other}"),
        }
        let (model, instances, invocations) = sm.describe_endpoint("prod").unwrap();
        assert_eq!(model, "rf");
        assert_eq!(instances, 2);
        assert_eq!(invocations, 1);
    }

    /// Bright-quadrant images: class = which half (top/bottom) holds
    /// the bright pixel.
    fn image_dataset(n: usize, seed: u64) -> Vec<(dlhub_core::tensor::Tensor, usize)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let label = rng.gen_range(0..2usize);
                let mut data = vec![0.0f32; 64];
                let row = if label == 0 {
                    rng.gen_range(0..3)
                } else {
                    rng.gen_range(5..8)
                };
                data[row * 8 + rng.gen_range(0..8)] = 1.0;
                (
                    dlhub_core::tensor::Tensor::new(vec![1, 8, 8], data).unwrap(),
                    label,
                )
            })
            .collect()
    }

    #[test]
    fn cnn_training_job_learns_and_serves() {
        let sm = SageMaker::new();
        let data = image_dataset(200, 4);
        let accuracy = sm
            .create_cnn_training_job("quadrant", vec![1, 8, 8], 2, &data, 6, 4)
            .unwrap();
        assert!(accuracy > 0.9, "train accuracy {accuracy}");
        sm.create_endpoint("quadrant-prod", "quadrant", 1).unwrap();
        // Fresh unseen samples classify correctly through the endpoint.
        let mut correct = 0;
        let test = image_dataset(40, 5);
        for (x, label) in &test {
            let out = sm
                .invoke_endpoint("quadrant-prod", &Value::from_tensor(x))
                .unwrap();
            if let Value::Json(doc) = out {
                if doc["class"].as_u64() == Some(*label as u64) {
                    correct += 1;
                }
            }
        }
        assert!(correct >= 35, "test accuracy {correct}/40");
    }

    #[test]
    fn cnn_training_job_validates_inputs() {
        let sm = SageMaker::new();
        assert!(matches!(
            sm.create_cnn_training_job("m", vec![1, 8, 8], 2, &[], 1, 0),
            Err(SageMakerError::Training(_))
        ));
        // Label out of range.
        let bad = vec![(dlhub_core::tensor::Tensor::zeros(vec![1, 8, 8]), 5usize)];
        assert!(matches!(
            sm.create_cnn_training_job("m", vec![1, 8, 8], 2, &bad, 1, 0),
            Err(SageMakerError::Training(_))
        ));
        // Wrong shape.
        let bad = vec![(dlhub_core::tensor::Tensor::zeros(vec![1, 4, 4]), 0usize)];
        assert!(matches!(
            sm.create_cnn_training_job("m", vec![1, 8, 8], 2, &bad, 1, 0),
            Err(SageMakerError::Training(_))
        ));
    }

    #[test]
    fn byo_model_and_endpoint() {
        let sm = SageMaker::new();
        sm.create_model("echo", servable_fn(|v| Ok(v.clone())))
            .unwrap();
        sm.create_endpoint("e", "echo", 1).unwrap();
        assert_eq!(
            sm.invoke_endpoint("e", &Value::Str("x".into())).unwrap(),
            Value::Str("x".into())
        );
    }

    #[test]
    fn name_collisions_rejected() {
        let sm = SageMaker::new();
        sm.create_model("m", servable_fn(|v| Ok(v.clone())))
            .unwrap();
        assert!(matches!(
            sm.create_model("m", servable_fn(|v| Ok(v.clone()))),
            Err(SageMakerError::AlreadyExists(_))
        ));
        sm.create_endpoint("e", "m", 1).unwrap();
        assert!(matches!(
            sm.create_endpoint("e", "m", 1),
            Err(SageMakerError::AlreadyExists(_))
        ));
    }

    #[test]
    fn bad_training_data_rejected() {
        let sm = SageMaker::new();
        let empty = TrainingData {
            features: vec![],
            targets: vec![],
        };
        assert!(matches!(
            sm.create_training_job("m", &empty, 0),
            Err(SageMakerError::Training(_))
        ));
        let ragged = TrainingData {
            features: vec![vec![1.0], vec![1.0, 2.0]],
            targets: vec![0.0, 1.0],
        };
        assert!(matches!(
            sm.create_training_job("m", &ragged, 0),
            Err(SageMakerError::Training(_))
        ));
    }

    #[test]
    fn missing_names_error() {
        let sm = SageMaker::new();
        assert!(matches!(
            sm.create_endpoint("e", "ghost", 1),
            Err(SageMakerError::NoSuchModel(_))
        ));
        assert!(matches!(
            sm.invoke_endpoint("ghost", &Value::Null),
            Err(SageMakerError::NoSuchEndpoint(_))
        ));
        assert!(matches!(
            sm.export_container("ghost"),
            Err(SageMakerError::NoSuchModel(_))
        ));
    }

    #[test]
    fn export_builds_a_container() {
        let sm = SageMaker::new();
        sm.create_model("m", servable_fn(|v| Ok(v.clone())))
            .unwrap();
        let image = sm.export_container("m").unwrap();
        assert!(image.layers.iter().any(|l| l.step.contains("m.artifact")));
        assert_eq!(image.entrypoint, "serve");
    }
}

//! The paper's six evaluation servables (§V-A): `noop`, Inception-v3,
//! CIFAR-10, and the three matminer stages.

use crate::servable::{deferred, ModelType, Servable, ServableMetadata, TypeDesc};
use crate::value::Value;
use dlhub_matsci::forest::{ForestConfig, RandomForest};
use dlhub_matsci::FEATURE_COUNT;
use dlhub_tensor::models::{CIFAR10_INPUT, INCEPTION_INPUT};
use dlhub_tensor::Network;
use std::sync::Arc;

/// The baseline "noop" servable: "returns 'hello world' when invoked".
pub struct NoopServable;

impl Servable for NoopServable {
    fn run(&self, _input: &Value) -> Result<Value, String> {
        Ok(Value::Str("hello world".into()))
    }
}

/// An image classifier wrapping a [`dlhub_tensor::Network`]; used for
/// both Inception-v3 and CIFAR-10.
pub struct ImageClassifier {
    network: Network,
    labels: Vec<String>,
    top_k: usize,
}

impl ImageClassifier {
    /// Inception-v3: 149×149 RGB in, top-5 of 1000 categories out.
    pub fn inception(seed: u64) -> Self {
        ImageClassifier {
            network: dlhub_tensor::models::inception(seed),
            labels: (0..dlhub_tensor::models::INCEPTION_CLASSES)
                .map(|i| format!("imagenet-{i:04}"))
                .collect(),
            top_k: 5,
        }
    }

    /// CIFAR-10: 32×32 RGB in, the 10 CIFAR categories out.
    pub fn cifar10(seed: u64) -> Self {
        let labels = [
            "airplane",
            "automobile",
            "bird",
            "cat",
            "deer",
            "dog",
            "frog",
            "horse",
            "ship",
            "truck",
        ];
        ImageClassifier {
            network: dlhub_tensor::models::cifar10(seed),
            labels: labels.iter().map(|s| s.to_string()).collect(),
            top_k: 1,
        }
    }

    /// Expected input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.network.input_shape
    }
}

impl Servable for ImageClassifier {
    fn run(&self, input: &Value) -> Result<Value, String> {
        let tensor = input
            .to_tensor()
            .ok_or_else(|| format!("{} expects a tensor input", self.network.name))?;
        if tensor.shape() != self.input_shape() {
            return Err(format!(
                "{} expects shape {:?}, got {:?}",
                self.network.name,
                self.input_shape(),
                tensor.shape()
            ));
        }
        let probs = self.network.forward(tensor);
        let top = probs.top_k(self.top_k);
        let classes: Vec<Value> = top
            .into_iter()
            .map(|idx| {
                Value::Json(serde_json::json!({
                    "label": self.labels[idx],
                    "probability": probs.data()[idx],
                }))
            })
            .collect();
        Ok(Value::List(classes))
    }
}

/// `matminer util`: "parsing a string with pymatgen to extract the
/// elemental composition".
pub struct MatminerUtil;

impl Servable for MatminerUtil {
    fn run(&self, input: &Value) -> Result<Value, String> {
        let formula = input
            .as_str()
            .ok_or_else(|| "matminer util expects a formula string".to_string())?;
        let composition = dlhub_matsci::parse_formula(formula).map_err(|e| e.to_string())?;
        let amounts: serde_json::Map<String, serde_json::Value> = composition
            .amounts
            .iter()
            .map(|(sym, amt)| (sym.to_string(), serde_json::json!(amt)))
            .collect();
        Ok(Value::Json(serde_json::json!({
            "formula": formula,
            "composition": amounts,
        })))
    }
}

/// `matminer featurize`: "computing features from the element
/// fractions by using Matminer".
pub struct MatminerFeaturize;

impl Servable for MatminerFeaturize {
    fn run(&self, input: &Value) -> Result<Value, String> {
        // Accepts either the util stage's JSON or a raw formula string,
        // so it composes in pipelines and works standalone.
        let formula = match input {
            Value::Json(doc) => doc
                .get("formula")
                .and_then(|f| f.as_str())
                .ok_or_else(|| "composition document lacks 'formula'".to_string())?
                .to_string(),
            Value::Str(s) => s.clone(),
            _ => return Err("matminer featurize expects json or string".into()),
        };
        let composition = dlhub_matsci::parse_formula(&formula).map_err(|e| e.to_string())?;
        let features = dlhub_matsci::featurize(&composition);
        Ok(Value::Tensor {
            shape: vec![features.len()],
            data: features.iter().map(|v| *v as f32).collect(),
        })
    }
}

/// `matminer model`: "executing a scikit-learn random forest model to
/// predict stability", trained on the synthetic OQMD-like dataset.
pub struct MatminerModel {
    forest: RandomForest,
}

/// The stability forest both matminer models serve: 25 trees choosing
/// among 16 features a split, fitted on 500 synthetic compounds.
/// Deterministic for a given seed.
fn stability_forest(seed: u64) -> RandomForest {
    let data = dlhub_matsci::dataset::generate(500, seed);
    RandomForest::fit(
        &data.features(),
        &data.targets(),
        &ForestConfig {
            n_trees: 25,
            max_features: Some(16),
            seed,
            ..ForestConfig::default()
        },
    )
}

impl MatminerModel {
    /// Train the stability model. Deterministic for a given seed.
    pub fn train(seed: u64) -> Self {
        MatminerModel {
            forest: stability_forest(seed),
        }
    }
}

/// The features of a matminer model input.
fn features(input: &Value) -> Result<&[f32], String> {
    let data = match input {
        Value::Tensor { shape, data } if shape.iter().product::<usize>() == data.len() => data,
        _ => return Err("matminer model expects a feature tensor".to_string()),
    };
    if data.len() != FEATURE_COUNT {
        return Err(format!(
            "expected {FEATURE_COUNT} features, got {}",
            data.len()
        ));
    }
    Ok(data)
}

/// The feature row of a matminer model input, widened to `f64`.
fn feature_row(input: &Value) -> Result<[f64; FEATURE_COUNT], String> {
    let data = features(input)?;
    Ok(std::array::from_fn(|i| f64::from(data[i])))
}

impl Servable for MatminerModel {
    fn run(&self, input: &Value) -> Result<Value, String> {
        Ok(Value::Float(self.forest.predict(&feature_row(input)?)))
    }

    /// Each valid input's features are widened straight into one block
    /// of rows, walked by one `predict_many`; an invalid one keeps its
    /// error.
    fn run_many(&self, inputs: &[Value]) -> Vec<Result<Value, String>> {
        let mut rows = self.forest.rows(inputs.len());
        let mut outcomes: Vec<Result<Value, String>> = inputs
            .iter()
            .map(|input| {
                let data = features(input)?;
                rows.push(data.iter().map(|&v| f64::from(v)))
                    .map_err(|got| format!("expected {FEATURE_COUNT} features, got {got}"))?;
                Ok(Value::Null)
            })
            .collect();
        let valid = outcomes.iter_mut().filter(|outcome| outcome.is_ok());
        for (outcome, prediction) in valid.zip(rows.predict()) {
            *outcome = Ok(Value::Float(prediction));
        }
        outcomes
    }
}

/// Uncertainty-quantified variant of [`MatminerModel`]: scientific
/// workflows attach "uncertainty quantification methods" after
/// inference (§II); the forest's per-tree spread provides it.
pub struct MatminerModelUq {
    forest: RandomForest,
}

impl MatminerModelUq {
    /// Train the UQ stability model (same data/seed regime as
    /// [`MatminerModel::train`]).
    pub fn train(seed: u64) -> Self {
        MatminerModelUq {
            forest: stability_forest(seed),
        }
    }
}

impl Servable for MatminerModelUq {
    fn run(&self, input: &Value) -> Result<Value, String> {
        let (prediction, uncertainty) = self.forest.predict_with_uncertainty(&feature_row(input)?);
        Ok(Value::Json(serde_json::json!({
            "prediction": prediction,
            "uncertainty": uncertainty,
            "n_trees": self.forest.n_trees(),
        })))
    }
}

/// One built-in servable bundled with its metadata, ready to publish.
pub struct BuiltinServable {
    /// Publication metadata.
    pub metadata: ServableMetadata,
    /// Implementation.
    pub servable: Arc<dyn Servable>,
}

/// The paper's six servables under `owner`, with deterministic weights
/// from `seed`. The three models — Inception-v3, CIFAR-10 and the
/// matminer forest — are [`deferred`](crate::servable::Deferred): each
/// is built on its servable's first deploy, so publishing them costs
/// their metadata, and a hub holds only the models its traffic uses.
pub fn evaluation_servables(owner: &str, seed: u64) -> Vec<BuiltinServable> {
    let mut out = Vec::new();

    let mut m = ServableMetadata::new("noop", owner, ModelType::PythonFunction);
    m.description = "Baseline test function returning 'hello world'".into();
    m.domain = "benchmark".into();
    m.input_type = TypeDesc::Any;
    m.output_type = TypeDesc::String;
    out.push(BuiltinServable {
        metadata: m,
        servable: Arc::new(NoopServable),
    });

    let mut m = ServableMetadata::new("inception", owner, ModelType::TensorFlow);
    m.description = "Inception-v3 image recognition (1000 ImageNet categories, top-5)".into();
    m.domain = "vision".into();
    m.input_type = TypeDesc::Tensor(Some(INCEPTION_INPUT.to_vec()));
    m.output_type = TypeDesc::List;
    m.dependencies = vec![("tensorflow".into(), "1.12".into())];
    m.tags = vec!["cnn".into(), "imagenet".into()];
    out.push(BuiltinServable {
        metadata: m,
        servable: deferred(move || ImageClassifier::inception(seed)),
    });

    let mut m = ServableMetadata::new("cifar10", owner, ModelType::Keras);
    m.description = "Multi-layer CNN classifying 32x32 RGB images into 10 categories".into();
    m.domain = "vision".into();
    m.input_type = TypeDesc::Tensor(Some(CIFAR10_INPUT.to_vec()));
    m.output_type = TypeDesc::List;
    m.dependencies = vec![("keras".into(), "2.2.4".into())];
    m.tags = vec!["cnn".into(), "cifar-10".into()];
    out.push(BuiltinServable {
        metadata: m,
        servable: deferred(move || ImageClassifier::cifar10(seed)),
    });

    let mut m = ServableMetadata::new("matminer-util", owner, ModelType::PythonFunction);
    m.description = "Parse a composition string into elemental fractions (pymatgen)".into();
    m.domain = "materials science".into();
    m.input_type = TypeDesc::String;
    m.output_type = TypeDesc::Json;
    m.dependencies = vec![("pymatgen".into(), "2018.11".into())];
    out.push(BuiltinServable {
        metadata: m,
        servable: Arc::new(MatminerUtil),
    });

    let mut m = ServableMetadata::new("matminer-featurize", owner, ModelType::PythonFunction);
    m.description = "Compute Ward-2016 (Magpie) features from element fractions".into();
    m.domain = "materials science".into();
    m.input_type = TypeDesc::Json;
    m.output_type = TypeDesc::Tensor(Some(vec![dlhub_matsci::FEATURE_COUNT]));
    m.dependencies = vec![("matminer".into(), "0.4".into())];
    out.push(BuiltinServable {
        metadata: m,
        servable: Arc::new(MatminerFeaturize),
    });

    let mut m = ServableMetadata::new("matminer-model", owner, ModelType::ScikitLearn);
    m.description = "Random-forest stability prediction (Ward features, OQMD data)".into();
    m.domain = "materials science".into();
    m.input_type = TypeDesc::Tensor(Some(vec![dlhub_matsci::FEATURE_COUNT]));
    m.output_type = TypeDesc::Float;
    m.dependencies = vec![("scikit-learn".into(), "0.20".into())];
    out.push(BuiltinServable {
        metadata: m,
        servable: deferred(move || MatminerModel::train(seed)),
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_tensor::models::synthetic_image;

    #[test]
    fn noop_returns_hello_world() {
        assert_eq!(
            NoopServable.run(&Value::Null).unwrap(),
            Value::Str("hello world".into())
        );
    }

    #[test]
    fn inception_returns_top5() {
        let s = ImageClassifier::inception(7);
        let input = Value::from_tensor(&synthetic_image(&INCEPTION_INPUT, 0));
        let out = s.run(&input).unwrap();
        let list = out.as_list().unwrap();
        assert_eq!(list.len(), 5);
        // Probabilities are descending.
        let probs: Vec<f64> = list
            .iter()
            .map(|v| match v {
                Value::Json(j) => j["probability"].as_f64().unwrap(),
                _ => panic!("expected json"),
            })
            .collect();
        assert!(probs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn cifar10_returns_a_category() {
        let s = ImageClassifier::cifar10(7);
        let input = Value::from_tensor(&synthetic_image(&CIFAR10_INPUT, 0));
        let out = s.run(&input).unwrap();
        let list = out.as_list().unwrap();
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn classifiers_reject_bad_inputs() {
        let s = ImageClassifier::cifar10(7);
        assert!(s.run(&Value::Str("not an image".into())).is_err());
        let wrong_shape = Value::Tensor {
            shape: vec![3, 16, 16],
            data: vec![0.0; 3 * 16 * 16],
        };
        let err = s.run(&wrong_shape).unwrap_err();
        assert!(err.contains("expects shape"));
    }

    #[test]
    fn matminer_models_reject_what_is_not_a_feature_row() {
        let tensor = |shape: Vec<usize>, len| Value::Tensor {
            shape,
            data: vec![0.0; len],
        };
        let n = dlhub_matsci::FEATURE_COUNT;
        let models: [Box<dyn Servable>; 2] = [
            Box::new(MatminerModel::train(3)),
            Box::new(MatminerModelUq::train(3)),
        ];
        for model in models {
            assert!(model.run(&tensor(vec![n], n)).is_ok());
            assert!(model.run(&tensor(vec![1, n], n)).is_ok());
            for not_a_tensor in [Value::Str("NaCl".into()), tensor(vec![7], n)] {
                let err = model.run(&not_a_tensor).unwrap_err();
                assert_eq!(err, "matminer model expects a feature tensor");
            }
            let err = model.run(&tensor(vec![3], 3)).unwrap_err();
            assert_eq!(err, format!("expected {n} features, got 3"));
            // A block answers each input as `run` does, rejects included.
            let block = [
                MatminerFeaturize.run(&Value::Str("NaCl".into())).unwrap(),
                tensor(vec![3], 3),
                MatminerFeaturize.run(&Value::Str("Fe2O3".into())).unwrap(),
                Value::Null,
            ];
            let each: Vec<_> = block.iter().map(|input| model.run(input)).collect();
            assert_eq!(format!("{:?}", model.run_many(&block)), format!("{each:?}"));
        }
    }

    #[test]
    fn matminer_pipeline_stages_compose() {
        let util = MatminerUtil;
        let featurize = MatminerFeaturize;
        let model = MatminerModel::train(3);
        let composition = util.run(&Value::Str("NaCl".into())).unwrap();
        match &composition {
            Value::Json(doc) => {
                assert_eq!(doc["composition"]["Na"], 1.0);
                assert_eq!(doc["composition"]["Cl"], 1.0);
            }
            other => panic!("expected json, got {other}"),
        }
        let features = featurize.run(&composition).unwrap();
        let prediction = model.run(&features).unwrap();
        match prediction {
            Value::Float(v) => assert!(v.is_finite()),
            other => panic!("expected float, got {other}"),
        }
    }

    #[test]
    fn matminer_prefers_ionic_stability() {
        // End-to-end sanity: NaCl should predict more stable (lower)
        // than a metallic pair, mirroring the synthetic ground truth.
        let featurize = MatminerFeaturize;
        let model = MatminerModel::train(3);
        let predict = |formula: &str| {
            let f = featurize.run(&Value::Str(formula.into())).unwrap();
            match model.run(&f).unwrap() {
                Value::Float(v) => v,
                _ => unreachable!(),
            }
        };
        assert!(predict("NaCl") < predict("CuNi"));
    }

    #[test]
    fn matminer_errors_propagate() {
        assert!(MatminerUtil.run(&Value::Str("Zz9".into())).is_err());
        assert!(MatminerFeaturize.run(&Value::Int(2)).is_err());
        let model = MatminerModel::train(3);
        let bad = Value::Tensor {
            shape: vec![3],
            data: vec![0.0; 3],
        };
        assert!(model.run(&bad).unwrap_err().contains("features"));
    }

    #[test]
    fn uq_model_reports_prediction_and_spread() {
        let featurize = MatminerFeaturize;
        let uq = MatminerModelUq::train(3);
        let plain = MatminerModel::train(3);
        let features = featurize.run(&Value::Str("NaCl".into())).unwrap();
        let out = uq.run(&features).unwrap();
        match &out {
            Value::Json(doc) => {
                let prediction = doc["prediction"].as_f64().unwrap();
                let uncertainty = doc["uncertainty"].as_f64().unwrap();
                assert!(prediction.is_finite());
                assert!(uncertainty >= 0.0);
                assert_eq!(doc["n_trees"], 25);
                // Same forest regime: the UQ mean equals the plain
                // model's prediction.
                match plain.run(&features).unwrap() {
                    Value::Float(p) => assert!((p - prediction).abs() < 1e-12),
                    other => panic!("unexpected {other}"),
                }
            }
            other => panic!("expected json, got {other}"),
        }
        assert!(uq.run(&Value::Null).is_err());
    }

    fn published(id: &str) -> BuiltinServable {
        let mut set = evaluation_servables("logan@uchicago.edu", 7);
        let at = set.iter().position(|b| b.metadata.id() == id).unwrap();
        set.swap_remove(at)
    }

    #[test]
    fn a_deferred_cifar10_answers_bit_equal_to_an_eager_one() {
        let eager = ImageClassifier::cifar10(7);
        let deferred = published("logan/cifar10").servable;
        for variant in 0..4 {
            let input = Value::from_tensor(&synthetic_image(&CIFAR10_INPUT, variant));
            let (want, got) = (eager.run(&input).unwrap(), deferred.run(&input).unwrap());
            // `Value` compares floats by `==`; `Debug` shows every bit.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "image {variant}");
        }
    }

    #[test]
    fn each_built_network_takes_the_shape_its_metadata_publishes() {
        let built = [
            ("logan/cifar10", ImageClassifier::cifar10(7)),
            ("logan/inception", ImageClassifier::inception(7)),
        ];
        for (id, classifier) in built {
            let published = published(id).metadata.input_type;
            let shape = classifier.input_shape().to_vec();
            assert_eq!(published, TypeDesc::Tensor(Some(shape)), "{id}");
        }
    }

    /// FNV-1a over each tree's `node_count` and `depth`, then the
    /// `to_bits` of `predict` and of `predict_with_uncertainty` (mean,
    /// std) on the model's 500 training rows and 2,000 unseen ones.
    fn forest_bits(forest: &RandomForest, seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for tree in forest.trees() {
            eat(tree.node_count() as u64);
            eat(tree.depth() as u64);
        }
        let train = dlhub_matsci::dataset::generate(500, seed).features();
        let unseen = dlhub_matsci::dataset::generate(2000, 99).features();
        for row in train.iter().chain(&unseen) {
            eat(forest.predict(row).to_bits());
            let (mean, std) = forest.predict_with_uncertainty(row);
            eat(mean.to_bits());
            eat(std.to_bits());
        }
        h
    }

    /// The matminer forests are the ones the sort-based fit and the
    /// enum walker built and answered with before the fit moved to dense
    /// ranks and the walk to flat nodes; the constants were recorded
    /// with those. A change to a split, a sum's order or the partition
    /// moves them.
    #[test]
    fn matminer_forests_keep_their_bits() {
        let cases = [
            ("MatminerModel::train(7)", MatminerModel::train(7).forest, 7),
            ("MatminerModel::train(3)", MatminerModel::train(3).forest, 3),
            (
                "MatminerModelUq::train(7)",
                MatminerModelUq::train(7).forest,
                7,
            ),
        ];
        let want = [
            0x9526_c16a_3958_8a07,
            0x2b80_c749_d82c_8cbc,
            0x9526_c16a_3958_8a07,
        ];
        for ((name, forest, seed), want) in cases.into_iter().zip(want) {
            let got = forest_bits(&forest, seed);
            assert_eq!(got, want, "{name}: forest bits changed ({got:#018x})");
        }
    }

    #[test]
    fn evaluation_set_has_six_servables() {
        let set = evaluation_servables("logan@uchicago.edu", 7);
        assert_eq!(set.len(), 6);
        let ids: Vec<String> = set.iter().map(|b| b.metadata.id()).collect();
        assert!(ids.contains(&"logan/noop".to_string()));
        assert!(ids.contains(&"logan/inception".to_string()));
        assert!(ids.contains(&"logan/matminer-model".to_string()));
        // Every metadata declares input and output types.
        for b in &set {
            assert_ne!(b.metadata.input_type.descriptor(), "");
        }
    }
}

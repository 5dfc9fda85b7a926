//! The DLHub toolbox (§IV-E): programmatic metadata construction that
//! complies with the DLHub schema, plus local execution of servables
//! "useful for model development and testing".

use dlhub_core::servable::{ModelType, Servable, ServableMetadata, TypeDesc};
use dlhub_core::value::Value;
use dlhub_sync::time::Instant;
use std::time::Duration;

/// Builder producing schema-compliant [`ServableMetadata`].
#[derive(Debug, Clone)]
pub struct MetadataBuilder {
    metadata: ServableMetadata,
}

impl MetadataBuilder {
    /// Start a document for `name` of the given model family. The
    /// owner field is pre-completed by the service at publication from
    /// the authenticated profile, so it is not settable here.
    pub fn new(name: impl Into<String>, model_type: ModelType) -> Self {
        MetadataBuilder {
            metadata: ServableMetadata::new(name, "pending@publication", model_type),
        }
    }

    /// Human description.
    pub fn description(mut self, text: impl Into<String>) -> Self {
        self.metadata.description = text.into();
        self
    }

    /// Add an author for citation.
    pub fn author(mut self, name: impl Into<String>) -> Self {
        self.metadata.authors.push(name.into());
        self
    }

    /// Science domain.
    pub fn domain(mut self, domain: impl Into<String>) -> Self {
        self.metadata.domain = domain.into();
        self
    }

    /// Declared input type.
    pub fn input(mut self, desc: TypeDesc) -> Self {
        self.metadata.input_type = desc;
        self
    }

    /// Declared output type.
    pub fn output(mut self, desc: TypeDesc) -> Self {
        self.metadata.output_type = desc;
        self
    }

    /// Pin a dependency.
    pub fn dependency(mut self, package: impl Into<String>, version: impl Into<String>) -> Self {
        self.metadata
            .dependencies
            .push((package.into(), version.into()));
        self
    }

    /// Add a discovery tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.metadata.tags.push(tag.into());
        self
    }

    /// Publication year.
    pub fn year(mut self, year: u32) -> Self {
        self.metadata.year = year;
        self
    }

    /// Validate and produce the metadata document.
    pub fn build(self) -> Result<ServableMetadata, String> {
        let m = &self.metadata;
        if m.name.is_empty() {
            return Err("name is required".into());
        }
        if m.name.contains('/') || m.name.contains(char::is_whitespace) {
            return Err("name must not contain '/' or whitespace".into());
        }
        if m.description.is_empty() {
            return Err("description is required by the DLHub schema".into());
        }
        Ok(self.metadata)
    }
}

/// Result of a local run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalRun {
    /// Servable output.
    pub output: Value,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Execute a servable locally ("functionality to execute DLHub models
/// locally … useful for model development and testing", §IV-E),
/// validating the input against the declared type first.
pub fn run_local(
    metadata: &ServableMetadata,
    servable: &dyn Servable,
    input: &Value,
) -> Result<LocalRun, String> {
    if !metadata.input_type.matches(input) {
        return Err(format!(
            "input does not match declared type {}",
            metadata.input_type.descriptor()
        ));
    }
    let start = Instant::now();
    let output = servable.run(input)?;
    Ok(LocalRun {
        output,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_core::servable::builtins::MatminerUtil;

    #[test]
    fn builder_produces_valid_metadata() {
        let m = MetadataBuilder::new("stability-rf", ModelType::ScikitLearn)
            .description("Random forest predicting stability")
            .author("Ward, Logan")
            .domain("materials science")
            .input(TypeDesc::Tensor(None))
            .output(TypeDesc::Float)
            .dependency("scikit-learn", "0.20")
            .tag("materials")
            .year(2018)
            .build()
            .unwrap();
        assert_eq!(m.name, "stability-rf");
        assert_eq!(m.authors.len(), 1);
        assert_eq!(m.year, 2018);
        assert_eq!(m.dependencies[0].0, "scikit-learn");
    }

    #[test]
    fn builder_enforces_schema() {
        let err = MetadataBuilder::new("m", ModelType::Keras)
            .build()
            .unwrap_err();
        assert!(err.contains("description"));
        let err = MetadataBuilder::new("bad name", ModelType::Keras)
            .description("d")
            .build()
            .unwrap_err();
        assert!(err.contains("whitespace"));
        let err = MetadataBuilder::new("a/b", ModelType::Keras)
            .description("d")
            .build()
            .unwrap_err();
        assert!(err.contains('/'));
    }

    #[test]
    fn run_local_validates_and_times() {
        let metadata = MetadataBuilder::new("util", ModelType::PythonFunction)
            .description("composition parser")
            .input(TypeDesc::String)
            .build()
            .unwrap();
        let run = run_local(&metadata, &MatminerUtil, &Value::Str("SiO2".into())).unwrap();
        match run.output {
            Value::Json(doc) => assert_eq!(doc["composition"]["O"], 2.0),
            other => panic!("unexpected {other}"),
        }
        let err = run_local(&metadata, &MatminerUtil, &Value::Int(1)).unwrap_err();
        assert!(err.contains("declared type"));
    }
}

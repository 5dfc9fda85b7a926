//! Server-side pipelines (§VI-D): each step is one request frame
//! under the pipeline's root span.

use super::{ManagementService, RunOptions};
use crate::error::DlhubError;
use crate::pipeline::{Pipeline, StepTiming};
use crate::value::Value;
use dlhub_auth::Token;

impl ManagementService {
    /// Register a pipeline. Every step must be visible to the
    /// registrant.
    pub fn register_pipeline(&self, token: &Token, pipeline: Pipeline) -> Result<(), DlhubError> {
        self.authorize_serve(token)?;
        pipeline.validate().map_err(DlhubError::Pipeline)?;
        for step in &pipeline.steps {
            self.repo.resolve(Some(token), step)?;
        }
        self.pipelines
            .write()
            .insert(pipeline.name.clone(), pipeline);
        Ok(())
    }

    /// Run a registered pipeline: steps execute server-side, output of
    /// step *k* feeding step *k + 1* without returning to the client
    /// (§VI-D). Returns the final value and per-step timings.
    pub fn run_pipeline(
        &self,
        token: &Token,
        name: &str,
        input: Value,
    ) -> Result<(Value, Vec<StepTiming>), DlhubError> {
        self.run_pipeline_traced(token, name, input)
            .map(|(value, steps, _)| (value, steps))
    }

    /// [`Self::run_pipeline`], additionally returning the trace id of
    /// the pipeline's span tree: one `pipeline` root with one `request`
    /// child per step, each carrying its `invocation`/`inference`
    /// descendants from the deeper tiers.
    pub fn run_pipeline_traced(
        &self,
        token: &Token,
        name: &str,
        input: Value,
    ) -> Result<(Value, Vec<StepTiming>, u64), DlhubError> {
        self.authorize_serve(token)?;
        let pipeline = self
            .pipelines
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DlhubError::Pipeline(format!("no such pipeline: {name}")))?;
        let mut span = self.obs.tracer.start_root("pipeline");
        span.attr("pipeline", name);
        span.attr("steps", pipeline.steps.len().to_string());
        let trace = span.trace();
        let ctx = span.ctx();
        let mut current = input;
        let mut steps = Vec::with_capacity(pipeline.steps.len());
        for step in &pipeline.steps {
            let result =
                match self.run_inner(token, step, current, &RunOptions::default(), Some(ctx)) {
                    Ok(result) => result,
                    Err(e) => {
                        span.attr("error", e.to_string());
                        self.obs.tracer.finish(span);
                        return Err(e);
                    }
                };
            steps.push(StepTiming {
                servable: step.clone(),
                timings: result.timings,
            });
            current = result.value;
        }
        self.obs.tracer.finish(span);
        Ok((current, steps, trace))
    }

    /// Registered pipelines.
    pub fn pipelines(&self) -> Vec<String> {
        let mut names: Vec<String> = self.pipelines.read().keys().cloned().collect();
        names.sort();
        names
    }
}

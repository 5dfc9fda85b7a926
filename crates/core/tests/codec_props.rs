//! Property tests for the task wire codec: the four frames a Management
//! Service and a Task Manager exchange.
//!
//! For any [`TaskRequest`], [`TaskResponse`], [`ChainRequest`] and
//! [`ChainResponse`], with or without a trace context:
//!
//! * decoding its encoding gives it back, and re-encoding that gives the
//!   same bytes;
//! * every strict prefix of the encoding — a frame cut short anywhere —
//!   decodes to an error, never to a value and never to a panic.

use dlhub_core::obs::TraceContext;
use dlhub_core::task::{
    ChainRequest, ChainResponse, StepCost, StepError, StepFailure, TaskRequest, TaskResponse,
};
use dlhub_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

fn float() -> impl Strategy<Value = f64> {
    any::<f64>().prop_filter("NaN never equals itself", |f| !f.is_nan())
}

/// A leaf value of every kind the codec has a tag for.
fn leaf() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        float().prop_map(Value::Float),
        "\\PC{0,12}".prop_map(Value::Str),
        vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
        vec(float().prop_map(|f| f as f32), 0..6).prop_map(|data| Value::Tensor {
            shape: vec![data.len()],
            data,
        }),
        any::<i64>().prop_map(|n| Value::Json(serde_json::json!({ "n": n, "tag": "x" }))),
    ]
    .boxed()
}

/// A value up to two lists deep.
fn value() -> BoxedStrategy<Value> {
    let list = || vec(leaf(), 0..4).prop_map(Value::List);
    prop_oneof![
        leaf(),
        leaf(),
        list(),
        vec(list(), 0..3).prop_map(Value::List),
    ]
    .boxed()
}

fn trace() -> BoxedStrategy<Option<TraceContext>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>()).prop_map(|(trace, span)| Some(TraceContext { trace, span })),
    ]
    .boxed()
}

fn id() -> &'static str {
    "\\PC{0,16}"
}

fn task_request() -> impl Strategy<Value = TaskRequest> {
    ((id(), id()), vec(value(), 0..4), trace()).prop_map(|((task_id, servable), inputs, trace)| {
        TaskRequest {
            task_id,
            servable,
            inputs,
            trace,
        }
    })
}

fn chain_request() -> impl Strategy<Value = ChainRequest> {
    ((id(), vec(id(), 1..4)), vec(value(), 0..4), trace()).prop_map(
        |((task_id, steps), inputs, trace)| ChainRequest {
            task_id,
            steps,
            inputs,
            trace,
        },
    )
}

fn task_response() -> impl Strategy<Value = TaskResponse> {
    let outcome = prop_oneof![vec(value(), 0..4).prop_map(Ok), id().prop_map(Err),];
    ((id(), outcome), vec(any::<u64>(), 0..4), any::<u64>()).prop_map(
        |((task_id, outcome), inference_nanos, invocation_nanos)| TaskResponse {
            task_id,
            outcome,
            inference_nanos,
            invocation_nanos,
        },
    )
}

fn chain_response() -> impl Strategy<Value = ChainResponse> {
    let error = prop_oneof![
        id().prop_map(StepError::Execution),
        id().prop_map(|expected| StepError::InvalidInput { expected }),
    ];
    let costs = vec(
        (any::<u64>(), any::<u64>()).prop_map(|(inference_nanos, invocation_nanos)| StepCost {
            inference_nanos,
            invocation_nanos,
        }),
        1..4,
    );
    // A failed chain reports no costs.
    let outcome = prop_oneof![
        (vec(value(), 0..4), costs).prop_map(|(values, costs)| (Ok(values), costs)),
        (0usize..8, error).prop_map(|(step, error)| (Err(StepFailure { step, error }), Vec::new())),
    ];
    (id(), outcome).prop_map(|(task_id, (outcome, steps))| ChainResponse {
        task_id,
        outcome,
        steps,
    })
}

/// `bytes` decodes to `frame` and re-encodes to itself, and no strict
/// prefix of it decodes.
fn round_trips<T: PartialEq + std::fmt::Debug>(
    frame: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, String>,
    encode: impl Fn(&T) -> bytes::Bytes,
) -> TestCaseResult {
    let back = decode(bytes).map_err(TestCaseError::fail)?;
    prop_assert_eq!(&back, frame);
    prop_assert_eq!(&encode(&back)[..], bytes);
    for cut in 0..bytes.len() {
        let truncated = decode(&bytes[..cut]);
        prop_assert!(
            truncated.is_err(),
            "a frame cut to {cut} of {} bytes decoded: {truncated:?}",
            bytes.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn task_requests_round_trip_and_reject_every_truncation(frame in task_request()) {
        let bytes = frame.to_bytes();
        round_trips(&frame, &bytes, TaskRequest::from_bytes, TaskRequest::to_bytes)?;
    }

    #[test]
    fn task_responses_round_trip_and_reject_every_truncation(frame in task_response()) {
        let bytes = frame.to_bytes();
        round_trips(&frame, &bytes, TaskResponse::from_bytes, TaskResponse::to_bytes)?;
    }

    #[test]
    fn chain_requests_round_trip_and_reject_every_truncation(frame in chain_request()) {
        let bytes = frame.to_bytes();
        round_trips(&frame, &bytes, ChainRequest::from_bytes, ChainRequest::to_bytes)?;
    }

    #[test]
    fn chain_responses_round_trip_and_reject_every_truncation(frame in chain_response()) {
        let bytes = frame.to_bytes();
        round_trips(&frame, &bytes, ChainResponse::from_bytes, ChainResponse::to_bytes)?;
    }
}

#[test]
fn a_trace_context_costs_a_request_frame_its_16_bytes_and_nothing_else() {
    let untraced = TaskRequest {
        task_id: "t".into(),
        servable: "dlhub/noop".into(),
        inputs: vec![Value::Null],
        trace: None,
    };
    let traced = TaskRequest {
        trace: Some(TraceContext { trace: 7, span: 9 }),
        ..untraced.clone()
    };
    let (a, b) = (untraced.to_bytes(), traced.to_bytes());
    assert_eq!(b.len(), a.len() + 16);
    assert_eq!(TaskRequest::from_bytes(&a).unwrap().trace, None);
    assert_eq!(
        TaskRequest::from_bytes(&b).unwrap().trace,
        Some(TraceContext { trace: 7, span: 9 })
    );
}

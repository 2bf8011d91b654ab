//! Decoding the benchmark's own submit requests.
//!
//! The daemon's request parsers are private to its wire module, so the
//! replay reads the few fields the benchmark sends itself. The evaluator it
//! builds is checked against the one [`rebuild_from_recipe`] returns by
//! comparing their canonical specs, so a drift between the two readings is
//! caught rather than silently measured.

use std::sync::Arc;

use spi_explore::{rebuild_from_recipe, Evaluator, JobSpec, PartitionEvaluator, TaskParamsSpec};
use spi_model::json::JsonValue;
use spi_synth::{FeasibilityMode, SearchStrategy};
use spi_variants::VariantSystem;

/// One decoded submit request.
pub struct Submit {
    pub recipe: JsonValue,
    pub spec: JobSpec,
    pub system: VariantSystem,
    /// The evaluator the daemon would build, as returned by the wire layer.
    pub service_evaluator: Arc<dyn Evaluator>,
    /// The same evaluator as a concrete value, for the per-variant calls.
    pub evaluator: PartitionEvaluator,
}

/// The `{"system", "evaluator"}` recipe the wire layer records for a submit.
pub fn recipe_of(request: &JsonValue) -> Result<JsonValue, String> {
    let system = request
        .get("system")
        .ok_or("submit without `system`")?
        .clone();
    let mut members = vec![("system".to_string(), system)];
    if let Some(evaluator) = request.get("evaluator") {
        members.push(("evaluator".to_string(), evaluator.clone()));
    }
    Ok(JsonValue::Object(members))
}

/// Parses one submit line: `JsonValue::parse` plus `rebuild_from_recipe`,
/// the two calls the `wire.decode_ns` metric times.
pub fn decode(line: &str) -> Result<Submit, String> {
    let request = JsonValue::parse(line).map_err(|e| format!("request: {e}"))?;
    let recipe = recipe_of(&request)?;
    let (system, service_evaluator) = rebuild_from_recipe(&recipe).map_err(|e| e.to_string())?;
    let evaluator = partition_evaluator(request.get("evaluator"))?;
    if service_evaluator.spec() != evaluator.spec() {
        return Err(format!(
            "evaluator drift: service {:?} vs benchmark {:?}",
            service_evaluator.spec().map(|s| s.to_line()),
            evaluator.spec().map(|s| s.to_line())
        ));
    }
    Ok(Submit {
        recipe,
        spec: job_spec(&request),
        system,
        service_evaluator,
        evaluator,
    })
}

fn job_spec(request: &JsonValue) -> JobSpec {
    let defaults = JobSpec::default();
    let text = |key: &str, default: &str| {
        request
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or(default)
            .to_string()
    };
    JobSpec {
        name: text("name", "ndjson"),
        shard_count: request
            .get("shards")
            .and_then(JsonValue::as_usize)
            .unwrap_or(defaults.shard_count),
        top_k: request
            .get("top_k")
            .and_then(JsonValue::as_usize)
            .unwrap_or(defaults.top_k),
        tenant: text("tenant", "default"),
        weight: request
            .get("weight")
            .and_then(JsonValue::as_u64)
            .and_then(|weight| u32::try_from(weight).ok())
            .unwrap_or(1)
            .max(1),
        use_cache: !request
            .get("no_cache")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
    }
}

/// The partition evaluator a request's `evaluator` object describes.
pub fn partition_evaluator(value: Option<&JsonValue>) -> Result<PartitionEvaluator, String> {
    let mut evaluator = PartitionEvaluator::default();
    let Some(value) = value else {
        return Ok(evaluator);
    };
    if let Some(cost) = value.get("processor_cost").and_then(JsonValue::as_u64) {
        evaluator.processor_cost = cost;
    }
    if let Some(strategy) = value.get("strategy").and_then(JsonValue::as_str) {
        evaluator.strategy = match strategy {
            "auto" => SearchStrategy::Auto,
            "exhaustive" => SearchStrategy::Exhaustive,
            "branch_and_bound" => SearchStrategy::BranchAndBound,
            "greedy" => SearchStrategy::Greedy,
            other => return Err(format!("unknown strategy `{other}`")),
        };
    }
    if let Some(mode) = value.get("mode").and_then(JsonValue::as_str) {
        evaluator.mode = match mode {
            "per_application" => FeasibilityMode::PerApplication,
            "serialized" => FeasibilityMode::Serialized,
            other => return Err(format!("unknown mode `{other}`")),
        };
    }
    if let Some(params) = value.get("params") {
        match params.get("kind").and_then(JsonValue::as_str) {
            Some("hashed") | None => {
                evaluator.params = TaskParamsSpec::Hashed {
                    seed: params.get("seed").and_then(JsonValue::as_u64).unwrap_or(42),
                }
            }
            Some(other) => return Err(format!("params kind `{other}` is not generated")),
        }
    }
    Ok(evaluator)
}

/// The report detail the partition evaluator renders for an optimum.
pub fn detail_of(cost: &spi_synth::CostBreakdown) -> String {
    format!(
        "hw=[{}] sw=[{}]",
        cost.hardware_tasks.join(","),
        cost.software_tasks.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_evaluators_match_the_service_spec() {
        let line = r#"{"op":"submit","system":{"scenario":"tv"},"shards":2,"tenant":"t","weight":2,"no_cache":true,"evaluator":{"strategy":"branch_and_bound","params":{"kind":"hashed","seed":7}}}"#;
        let submit = decode(line).expect("decodes");
        assert_eq!(submit.spec.shard_count, 2);
        assert_eq!(submit.spec.weight, 2);
        assert!(!submit.spec.use_cache);
        assert_eq!(submit.evaluator.strategy, SearchStrategy::BranchAndBound);
        assert_eq!(submit.evaluator.params, TaskParamsSpec::Hashed { seed: 7 });
    }
}

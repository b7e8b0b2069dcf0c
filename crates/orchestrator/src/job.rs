//! Job specifications and outputs.

use crate::json::Value;

/// The structured result of one job: the rendered artefact text, named
/// scalar metrics, and a deterministic count of simulated operations (used
/// for ops/sec throughput events — the count must not depend on wall time,
/// worker count, or cache state).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobOutput {
    /// Rendered artefact text, exactly as it should reach stdout.
    pub rendered: String,
    /// Named scalar metrics, in a deterministic order.
    pub metrics: Vec<(String, f64)>,
    /// Simulated operations performed (instructions, modelled line ops,
    /// trials — whatever the job's natural unit is). Deterministic.
    pub sim_ops: u64,
}

impl JobOutput {
    /// An output with rendered text only.
    #[must_use]
    pub fn rendered(text: String) -> Self {
        JobOutput {
            rendered: text,
            metrics: Vec::new(),
            sim_ops: 0,
        }
    }

    /// Adds a metric (builder style).
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Sets the simulated-op count (builder style).
    #[must_use]
    pub fn ops(mut self, sim_ops: u64) -> Self {
        self.sim_ops = sim_ops;
        self
    }

    /// Serializes to a JSON value (the cache entry body).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("rendered", Value::Str(self.rendered.clone())),
            (
                "metrics",
                Value::Arr(
                    self.metrics
                        .iter()
                        .map(|(k, v)| Value::Arr(vec![Value::Str(k.clone()), Value::F64(*v)]))
                        .collect(),
                ),
            ),
            ("sim_ops", Value::U64(self.sim_ops)),
        ])
    }

    /// Deserializes from a JSON value produced by [`JobOutput::to_json`].
    #[must_use]
    pub fn from_json(v: &Value) -> Option<JobOutput> {
        let rendered = v.get("rendered")?.as_str()?.to_string();
        let mut metrics = Vec::new();
        for pair in v.get("metrics")?.as_arr()? {
            let [name, value] = pair.as_arr()? else {
                return None;
            };
            metrics.push((name.as_str()?.to_string(), value.as_f64()?));
        }
        let sim_ops = v.get("sim_ops")?.as_u64()?;
        Some(JobOutput {
            rendered,
            metrics,
            sim_ops,
        })
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// The work closure: receives the outputs of the job's dependencies (in
/// `deps` order) and produces the job's output. Must be pure — same inputs,
/// same output — for caching to be sound.
pub type JobFn = Box<dyn Fn(&[JobOutput]) -> Result<JobOutput, String> + Send + Sync>;

/// One node of the job DAG.
pub struct JobSpec {
    /// Human-readable id, e.g. `fig6@trial#0` (used in events and the
    /// manifest; not part of the cache key).
    pub id: String,
    /// The cache-key material: every input that determines the output
    /// (artefact id, scale, seed, fingerprint of the binary). The
    /// engine extends this with the final keys of all dependencies, so a
    /// changed dependency transitively invalidates its dependents.
    pub key_material: Vec<String>,
    /// Indices of jobs this one consumes. Each must be **smaller** than
    /// this job's own index (the DAG is given in topological order).
    pub deps: Vec<usize>,
    /// The work.
    pub run: JobFn,
}

impl JobSpec {
    /// A dependency-free job.
    pub fn new(
        id: impl Into<String>,
        key_material: Vec<String>,
        run: impl Fn(&[JobOutput]) -> Result<JobOutput, String> + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            id: id.into(),
            key_material,
            deps: Vec::new(),
            run: Box::new(run),
        }
    }

    /// Sets the dependency list (builder style).
    #[must_use]
    pub fn after(mut self, deps: Vec<usize>) -> Self {
        self.deps = deps;
        self
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("id", &self.id)
            .field("key_material", &self.key_material)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_json_roundtrip() {
        let out = JobOutput::rendered("table ± stdev\nline2\n".to_string())
            .metric("gmean", 0.987_654_321)
            .metric("n", 25.0)
            .ops(1_234_567);
        let back = JobOutput::from_json(&Value::parse(&out.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn malformed_json_is_none() {
        for s in [
            "{}",
            r#"{"rendered":"x"}"#,
            r#"{"rendered":1,"metrics":[],"sim_ops":0}"#,
        ] {
            assert!(JobOutput::from_json(&Value::parse(s).unwrap()).is_none());
        }
    }
}

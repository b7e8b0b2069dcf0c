//! The benchmark's fixed parameters, read from `workloads.json`.
//!
//! The file is compiled into the binary, so a run never depends on the
//! working directory. It records, per workload, the input parameters, the
//! default seed and a held-out seed, and, per metric, its unit, direction,
//! the workloads it applies to, and the end-to-end metric it should move.

use orchestrator::json::Value;
use workloads::profiles::by_name;
use workloads::WorkloadProfile;

const CONFIG_JSON: &str = include_str!("../workloads.json");

/// Which workloads a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applies {
    /// Every workload.
    All,
    /// The simulator workloads only.
    Sim,
    /// `serve-open` only.
    Serve,
}

/// A declared metric.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub applies: Applies,
}

/// Parameters of a simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    pub profile: WorkloadProfile,
    pub mlp: usize,
    pub channels: usize,
    pub dram_gb: u64,
    pub warmup_instructions: u64,
    pub region_instructions: u64,
    pub regions_per_repeat: usize,
}

/// Parameters of the open-loop service workload.
#[derive(Debug, Clone)]
pub struct ServeParams {
    pub workers: usize,
    pub ladder_rps: Vec<u64>,
    pub light_rps: u64,
    pub heavy_rps: u64,
    pub p99_limit_us: f64,
    pub lateness_p99_limit_us: f64,
    pub min_achieved_ratio: f64,
    pub windows_per_rung: usize,
    pub embed_every: usize,
    pub corpus_lines: usize,
    pub census_processes: usize,
    pub census_lines_per_process: usize,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Sim(SimParams),
    Serve(ServeParams),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub default_seed: u64,
    pub kind: Kind,
}

impl Workload {
    pub fn is_sim(&self) -> bool {
        matches!(self.kind, Kind::Sim(_))
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Config {
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn uint(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` must be a whole number"))
}

fn size(v: &Value, key: &str, ctx: &str) -> Result<usize, String> {
    usize::try_from(uint(v, key, ctx)?).map_err(|_| format!("{ctx}: `{key}` too large"))
}

fn num(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    field(v, key, ctx)?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("{ctx}: `{key}` must be a number"))
}

fn text<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, String> {
    field(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

fn workload(v: &Value) -> Result<Workload, String> {
    let name = text(v, "name", "workload")?.to_string();
    let ctx = name.as_str();
    let kind = match text(v, "kind", ctx)? {
        "sim" => {
            let profile_name = text(v, "profile", ctx)?;
            let p = SimParams {
                profile: by_name(profile_name)
                    .ok_or_else(|| format!("{ctx}: unknown profile `{profile_name}`"))?,
                mlp: size(v, "mlp", ctx)?,
                channels: size(v, "channels", ctx)?,
                dram_gb: uint(v, "dram_gb", ctx)?,
                warmup_instructions: uint(v, "warmup_instructions", ctx)?,
                region_instructions: uint(v, "region_instructions", ctx)?,
                regions_per_repeat: size(v, "regions_per_repeat", ctx)?,
            };
            if p.mlp == 0
                || p.dram_gb == 0
                || p.region_instructions == 0
                || p.regions_per_repeat == 0
            {
                return Err(format!(
                    "{ctx}: mlp, dram_gb, region_instructions and regions_per_repeat must be positive"
                ));
            }
            if !p.channels.is_power_of_two() || p.channels > 8 {
                return Err(format!("{ctx}: channels must be a power of two up to 8"));
            }
            Kind::Sim(p)
        }
        "serve" => {
            let ladder_rps = field(v, "ladder_rps", ctx)?
                .as_arr()
                .ok_or_else(|| format!("{ctx}: `ladder_rps` must be an array"))?
                .iter()
                .map(|r| r.as_u64().filter(|&r| r > 0))
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| format!("{ctx}: ladder rates must be positive whole numbers"))?;
            let p = ServeParams {
                workers: size(v, "workers", ctx)?,
                light_rps: uint(v, "light_rps", ctx)?,
                heavy_rps: uint(v, "heavy_rps", ctx)?,
                p99_limit_us: num(v, "p99_limit_us", ctx)?,
                lateness_p99_limit_us: num(v, "lateness_p99_limit_us", ctx)?,
                min_achieved_ratio: num(v, "min_achieved_ratio", ctx)?,
                windows_per_rung: size(v, "windows_per_rung", ctx)?,
                embed_every: size(v, "embed_every", ctx)?,
                corpus_lines: size(v, "corpus_lines", ctx)?,
                census_processes: size(v, "census_processes", ctx)?,
                census_lines_per_process: size(v, "census_lines_per_process", ctx)?,
                ladder_rps,
            };
            if p.workers == 0 || p.windows_per_rung == 0 || p.corpus_lines == 0 {
                return Err(format!(
                    "{ctx}: workers, windows_per_rung and corpus_lines must be positive"
                ));
            }
            if !p.ladder_rps.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("{ctx}: the ladder must ascend"));
            }
            if !p.ladder_rps.contains(&p.light_rps) || !p.ladder_rps.contains(&p.heavy_rps) {
                return Err(format!("{ctx}: light and heavy rates must be ladder rungs"));
            }
            Kind::Serve(p)
        }
        other => return Err(format!("{ctx}: unknown kind `{other}`")),
    };
    Ok(Workload {
        default_seed: uint(v, "default_seed", ctx)?,
        name,
        kind,
    })
}

fn metrics(v: &Value, key: &str) -> Result<Vec<MetricDecl>, String> {
    field(v, key, "metrics")?
        .as_arr()
        .ok_or_else(|| format!("metrics: `{key}` must be an array"))?
        .iter()
        .map(|m| {
            let name = text(m, "name", key)?.to_string();
            let applies = match text(m, "applies", &name)? {
                "all" => Applies::All,
                "sim" => Applies::Sim,
                "serve" => Applies::Serve,
                other => return Err(format!("{name}: unknown `applies` value `{other}`")),
            };
            Ok(MetricDecl {
                unit: text(m, "unit", &name)?.to_string(),
                better: text(m, "better", &name)?.to_string(),
                applies,
                name,
            })
        })
        .collect()
}

/// Parses the compiled-in configuration.
pub fn load() -> Result<Config, String> {
    let root = Value::parse(CONFIG_JSON).map_err(|e| format!("workloads.json: {e}"))?;
    let workloads = field(&root, "workloads", "workloads.json")?
        .as_arr()
        .ok_or("workloads.json: `workloads` must be an array")?
        .iter()
        .map(workload)
        .collect::<Result<Vec<_>, _>>()?;
    let m = field(&root, "metrics", "workloads.json")?;
    Ok(Config {
        workloads,
        end_to_end: metrics(m, "end_to_end")?,
        per_layer: metrics(m, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list workloads this
    /// file defines, in the same order, and exactly its metrics with the
    /// same units and directions.
    #[test]
    fn benchmark_manifest_matches_the_config() {
        let cfg = load().expect("config parses");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let manifest = Value::parse(&text).expect("BENCHMARK.json parses");
        let names = |v: &Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let mut defined = cfg.workloads.iter().map(|w| w.name.as_str());
        for listed in names(&manifest, "workloads") {
            assert!(
                defined.any(|d| d == listed),
                "{listed} not defined, or out of order"
            );
        }
        for (key, decls) in [
            ("end_to_end", &cfg.end_to_end),
            ("per_layer", &cfg.per_layer),
        ] {
            let listed = manifest.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(listed.len(), decls.len(), "{key} count");
            for (m, d) in listed.iter().zip(decls.iter()) {
                assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name.as_str()));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit.as_str()));
                assert_eq!(
                    m.get("better").and_then(Value::as_str),
                    Some(d.better.as_str())
                );
            }
        }
        for d in &cfg.end_to_end {
            assert_eq!(
                d.applies,
                Applies::All,
                "{} must apply to every workload",
                d.name
            );
        }
    }
}

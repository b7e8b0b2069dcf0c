//! The bridge between the artefact modules and the orchestration engine:
//! the canonical artefact registry, per-artefact job entry points returning
//! structured [`JobOutput`]s, and DAG planners for plain runs and
//! multi-seed sweeps.
//!
//! Every artefact run is modelled as a **pure job** keyed by
//! `(artefact, scale, seed, binary fingerprint)`, so the engine's
//! content-addressed cache can serve byte-identical re-runs without
//! recomputation and an interrupted run resumes with only the missing
//! jobs. The fingerprint hashes the running binary, so a rebuild that
//! changes any code, default or version never serves a stale artefact.
//! A sweep adds one aggregation job per artefact, depending on the
//! per-seed jobs, that renders a mean ± stdev table over every numeric
//! metric the artefact exposes.

use std::sync::OnceLock;

use orchestrator::hash::hash_bytes;
use orchestrator::json::Value;
use orchestrator::{JobOutput, JobSpec};

use crate::report::Table;
use crate::{
    ablation, arena, attack, channels, coverage, diag, exploit, fig6, fig7, fig8, fig9, fullmem,
    mlp, multicore, oracle, priorwork, rth_sweep, security, serve, storage, tables, Scale,
};

/// Every artefact `exp` can regenerate, in the order `exp all` prints them
/// (the same order the usage banner advertises).
pub const ARTEFACTS: [&str; 24] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "security",
    "storage",
    "priorwork",
    "rth",
    "ablation",
    "diag",
    "fullmem",
    "multicore",
    "coverage",
    "exploit",
    "oracle",
    "mlp",
    "serve",
    "attack",
    "arena",
    "channels",
];

/// `priorwork` trials per damage class at each scale.
#[must_use]
pub fn priorwork_trials(scale: Scale) -> usize {
    match scale {
        Scale::Trial => 300,
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    }
}

/// `rth` attacker activations per aggressor side at each scale.
#[must_use]
pub fn rth_acts(scale: Scale) -> u64 {
    match scale {
        Scale::Trial => 30_000,
        Scale::Quick => 60_000,
        Scale::Full => 200_000,
    }
}

fn m(metrics: &mut Vec<(String, f64)>, name: impl Into<String>, v: f64) {
    metrics.push((name.into(), v));
}

#[allow(clippy::cast_precision_loss)]
fn mu(metrics: &mut Vec<(String, f64)>, name: impl Into<String>, v: u64) {
    metrics.push((name.into(), v as f64));
}

/// Runs one artefact and packages its rendered text and numeric metrics.
/// Seed 0 reproduces the historical single-seed output byte for byte.
/// `jobs` is the inner worker count for the artefacts that fan out
/// internally (`arena`, `attack`, `channels`, `oracle` and `serve`, each
/// through `ThreadPool::map_indexed`). It never enters the cache key:
/// every worker count produces byte-identical output, so a cached serial
/// result is a valid answer for a parallel request and vice versa.
///
/// # Errors
///
/// Returns `Err` for an unknown artefact name.
#[allow(clippy::too_many_lines)]
pub fn run_artefact_jobs(
    name: &str,
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> Result<JobOutput, String> {
    let mut metrics = Vec::new();
    let out = match name {
        "table1" => JobOutput::rendered(tables::table1()),
        "table2" => JobOutput::rendered(tables::table2()),
        "table3" => JobOutput::rendered(tables::table3()),
        "table4" => JobOutput::rendered(tables::table4(40)),
        "fig6" => {
            let r = fig6::run_with_seed(scale, ptguard::PtGuardConfig::default(), seed);
            m(&mut metrics, "gmean_ipc", r.gmean_ipc);
            m(&mut metrics, "amean_ipc", r.amean_ipc);
            m(&mut metrics, "mean_slowdown", r.mean_slowdown());
            m(&mut metrics, "worst_slowdown", 1.0 - r.worst().1);
            JobOutput {
                rendered: fig6::render(&r),
                metrics,
            }
        }
        "fig7" => {
            let r = fig7::run_seeded(scale, seed);
            for p in &r.points {
                let slug = if p.design == "PT-Guard" {
                    "ptguard"
                } else {
                    "optimized"
                };
                m(
                    &mut metrics,
                    format!("{slug}@{}.avg_slowdown", p.mac_latency),
                    p.avg_slowdown,
                );
                m(
                    &mut metrics,
                    format!("{slug}@{}.worst_slowdown", p.mac_latency),
                    p.worst_slowdown,
                );
            }
            JobOutput {
                rendered: fig7::render(&r),
                metrics,
            }
        }
        "fig8" => {
            let r = fig8::run_seeded(scale, seed);
            m(&mut metrics, "pct_zero", r.pct_zero);
            m(&mut metrics, "pct_contiguous", r.pct_contiguous);
            m(&mut metrics, "pct_noncontiguous", r.pct_noncontiguous);
            m(&mut metrics, "flag_uniformity", r.flag_uniformity);
            JobOutput {
                rendered: fig8::render(&r),
                metrics,
            }
        }
        "fig9" => {
            let r = fig9::run_seeded(scale, seed);
            for (pi, avg) in r.averages.iter().enumerate() {
                let denom = (1.0 / fig9::P_FLIPS[pi]).round() as u64;
                m(&mut metrics, format!("avg_rate[p=1/{denom}]"), *avg);
            }
            JobOutput {
                rendered: fig9::render(&r),
                metrics,
            }
        }
        "security" => JobOutput::rendered(security::render()),
        "storage" => JobOutput::rendered(storage::render()),
        "priorwork" => {
            let trials = priorwork_trials(scale);
            let rows = priorwork::run_seeded(trials, seed);
            for row in &rows {
                m(&mut metrics, format!("{}.secwalk", row.label), row.secwalk);
                m(
                    &mut metrics,
                    format!("{}.monotonic", row.label),
                    row.monotonic,
                );
                m(&mut metrics, format!("{}.ptguard", row.label), row.ptguard);
            }
            JobOutput {
                rendered: priorwork::render(&rows),
                metrics,
            }
        }
        "rth" => {
            let acts = rth_acts(scale);
            let points = rth_sweep::run(acts);
            for p in &points {
                let rth = p.rth.round() as u64;
                mu(
                    &mut metrics,
                    format!("rth{rth}.unmitigated_flips"),
                    p.unmitigated_flips,
                );
                mu(&mut metrics, format!("rth{rth}.trr_flips"), p.trr_flips);
                mu(
                    &mut metrics,
                    format!("rth{rth}.graphene_flips"),
                    p.graphene_flips,
                );
                mu(
                    &mut metrics,
                    format!("rth{rth}.ptguard_detected"),
                    p.ptguard_detected,
                );
            }
            JobOutput {
                rendered: rth_sweep::render(&points),
                metrics,
            }
        }
        "ablation" => {
            let points = ablation::run_seeded(scale, seed);
            for (i, p) in points.iter().enumerate() {
                m(&mut metrics, format!("design{i}.n_eff"), p.n_eff);
                m(
                    &mut metrics,
                    format!("design{i}.avg_slowdown"),
                    p.avg_slowdown,
                );
                m(
                    &mut metrics,
                    format!("design{i}.worst_slowdown"),
                    p.worst_slowdown,
                );
            }
            JobOutput {
                rendered: ablation::render(&points),
                metrics,
            }
        }
        "diag" => JobOutput::rendered(diag::run_default_seeded(scale, seed)),
        "fullmem" => {
            let rows = fullmem::run_seeded(scale, seed);
            for row in &rows {
                m(&mut metrics, format!("{}.ptguard", row.name), row.ptguard);
                m(
                    &mut metrics,
                    format!("{}.optimized", row.name),
                    row.optimized,
                );
                m(&mut metrics, format!("{}.fullmem", row.name), row.fullmem);
            }
            JobOutput {
                rendered: fullmem::render(&rows),
                metrics,
            }
        }
        "multicore" => {
            let r = multicore::run_seeded(scale, seed);
            m(&mut metrics, "avg_slowdown", r.avg);
            m(&mut metrics, "worst_slowdown", r.worst);
            JobOutput {
                rendered: multicore::render(&r),
                metrics,
            }
        }
        "coverage" => {
            let r = coverage::run_seeded(scale, seed);
            m(&mut metrics, "coverage", r.coverage());
            mu(&mut metrics, "erroneous", r.erroneous);
            mu(&mut metrics, "detected", r.detected);
            JobOutput {
                rendered: coverage::render(&r),
                metrics,
            }
        }
        "exploit" => {
            let r = exploit::run(scale);
            mu(
                &mut metrics,
                "unguarded_corrupted",
                r.unguarded_corrupted as u64,
            );
            mu(
                &mut metrics,
                "unguarded_hijacked",
                u64::from(r.unguarded_hijacked),
            );
            mu(&mut metrics, "guarded_flips", r.guarded_flips);
            mu(&mut metrics, "guarded_faults", r.guarded_faults);
            mu(&mut metrics, "guarded_corrected", r.guarded_corrected);
            mu(&mut metrics, "guarded_hijacks", r.guarded_hijacks);
            JobOutput {
                rendered: exploit::render(&r),
                metrics,
            }
        }
        "oracle" => {
            let r = oracle::run_with_seed_jobs(scale, seed, jobs);
            // A divergence is a *simulator bug*: fail the job loudly, with
            // the report (and each divergence's shrunk stream) as the error.
            if !r.clean() {
                return Err(format!(
                    "oracle found simulator divergences/violations:\n{}",
                    oracle::render(&r)
                ));
            }
            mu(&mut metrics, "diff_runs", r.diff_runs);
            mu(&mut metrics, "diff_ops", r.diff_ops);
            mu(&mut metrics, "divergences", r.divergences.len() as u64);
            mu(&mut metrics, "mac_single_flips", r.mac.single_flips);
            mu(&mut metrics, "mac_pair_flips", r.mac.pair_flips);
            mu(&mut metrics, "mac_alias_probes", r.mac.alias_probes);
            mu(&mut metrics, "campaign_injected", r.campaign.injected);
            mu(&mut metrics, "campaign_corrected", r.campaign.corrected_ok);
            mu(&mut metrics, "campaign_detected", r.campaign.detected);
            mu(
                &mut metrics,
                "campaign_max_guesses",
                u64::from(r.campaign.max_guesses),
            );
            JobOutput {
                rendered: oracle::render(&r),
                metrics,
            }
        }
        "mlp" => {
            let rows = mlp::run_seeded(scale, seed);
            for row in &rows {
                m(
                    &mut metrics,
                    format!("{}@{}.speedup", row.name, row.mlp),
                    row.speedup,
                );
                m(
                    &mut metrics,
                    format!("{}@{}.ipc", row.name, row.mlp),
                    row.ipc,
                );
                mu(
                    &mut metrics,
                    format!("{}@{}.queue_hwm", row.name, row.mlp),
                    row.queue_hwm,
                );
                mu(
                    &mut metrics,
                    format!("{}@{}.mshr_hwm", row.name, row.mlp),
                    row.mshr_hwm,
                );
                m(
                    &mut metrics,
                    format!("{}@{}.row_hit_rate", row.name, row.mlp),
                    row.row_hit_rate,
                );
                mu(
                    &mut metrics,
                    format!("{}@{}.events_posted", row.name, row.mlp),
                    row.events_posted,
                );
                mu(
                    &mut metrics,
                    format!("{}@{}.events_fired", row.name, row.mlp),
                    row.events_fired,
                );
                m(
                    &mut metrics,
                    format!("{}@{}.idle_skip_mean_ps", row.name, row.mlp),
                    row.idle_skip_mean_ps,
                );
            }
            JobOutput {
                rendered: mlp::render(&rows),
                metrics,
            }
        }
        "serve" => {
            let r = serve::run_seeded_jobs(scale, seed, jobs);
            for s in &r.rates {
                let rate = s.target_rps;
                m(
                    &mut metrics,
                    format!("rate{rate}.p50_ns"),
                    s.hist.percentile(50.0),
                );
                m(
                    &mut metrics,
                    format!("rate{rate}.p99_ns"),
                    s.hist.percentile(99.0),
                );
                m(
                    &mut metrics,
                    format!("rate{rate}.p999_ns"),
                    s.hist.percentile(99.9),
                );
                m(
                    &mut metrics,
                    format!("rate{rate}.achieved_rps"),
                    s.achieved_rps,
                );
                m(
                    &mut metrics,
                    format!("rate{rate}.mean_batch"),
                    s.mean_batch(),
                );
                mu(
                    &mut metrics,
                    format!("rate{rate}.corrected"),
                    s.outcome.corrected,
                );
            }
            m(&mut metrics, "census.pct_zero", r.census.pct_zero());
            m(
                &mut metrics,
                "census.pct_contiguous",
                r.census.pct_contiguous(),
            );
            JobOutput {
                rendered: serve::render(&r),
                metrics,
            }
        }
        "attack" => {
            let r = attack::run_seeded_jobs(scale, seed, jobs);
            for c in r.cells.iter().filter(|c| c.mitigation == "none") {
                let guard = if c.guarded { "on" } else { "off" };
                let key = format!("{}.{}.{guard}", c.allocator, c.hammerer);
                mu(
                    &mut metrics,
                    format!("{key}.successes"),
                    u64::from(c.successes),
                );
                mu(
                    &mut metrics,
                    format!("{key}.detected"),
                    u64::from(c.detected),
                );
            }
            for h in attacker::HAMMERERS {
                let mut prov = rowhammer::ActivationProvenance::default();
                let mut acts = 0u64;
                let mut delay_ps = 0u128;
                for c in r.cells.iter().filter(|c| c.hammerer == h.name()) {
                    prov.explicit += c.provenance.explicit;
                    prov.demand += c.provenance.demand;
                    prov.walk += c.provenance.walk;
                    prov.refresh += c.provenance.refresh;
                    acts += c.attacker_acts;
                    delay_ps += c.delay_ps;
                }
                let key = h.name();
                mu(&mut metrics, format!("{key}.prov_explicit"), prov.explicit);
                mu(&mut metrics, format!("{key}.prov_demand"), prov.demand);
                mu(&mut metrics, format!("{key}.prov_walk"), prov.walk);
                mu(&mut metrics, format!("{key}.prov_refresh"), prov.refresh);
                mu(&mut metrics, format!("{key}.attacker_acts"), acts);
                mu(
                    &mut metrics,
                    format!("{key}.delay_ps"),
                    u64::try_from(delay_ps).unwrap_or(u64::MAX),
                );
            }
            mu(&mut metrics, "max_guesses", u64::from(r.max_guesses()));
            mu(
                &mut metrics,
                "throttle.delay_ps",
                u64::try_from(r.throttling.delay_ps).unwrap_or(u64::MAX),
            );
            mu(
                &mut metrics,
                "throttle.successes",
                u64::from(r.throttling.successes),
            );
            JobOutput {
                rendered: attack::render(&r),
                metrics,
            }
        }
        "arena" => {
            let r = arena::run_seeded_jobs(scale, seed, jobs);
            for row in &r.rows {
                let key = row.name.to_ascii_lowercase().replace([' ', '-'], "_");
                m(
                    &mut metrics,
                    format!("{key}.gmean_norm_ipc"),
                    row.gmean_norm_ipc,
                );
                m(
                    &mut metrics,
                    format!("{key}.worst_norm_ipc"),
                    row.worst_norm_ipc,
                );
                mu(
                    &mut metrics,
                    format!("{key}.storage_bytes"),
                    row.storage_bytes,
                );
                mu(
                    &mut metrics,
                    format!("{key}.benign_refreshes"),
                    row.benign_refreshes,
                );
                mu(
                    &mut metrics,
                    format!("{key}.attack_refreshes"),
                    row.attack_refreshes,
                );
                mu(
                    &mut metrics,
                    format!("{key}.attack_delay_ps"),
                    u64::try_from(row.attack_delay_ps).unwrap_or(u64::MAX),
                );
                mu(
                    &mut metrics,
                    format!("{key}.successes"),
                    u64::from(row.successes),
                );
                mu(
                    &mut metrics,
                    format!("{key}.detected"),
                    u64::from(row.detected),
                );
            }
            JobOutput {
                rendered: arena::render(&r),
                metrics,
            }
        }
        "channels" => {
            let r = channels::run_seeded_jobs(scale, seed, jobs);
            for row in &r.rows {
                m(
                    &mut metrics,
                    format!("{}@{}.speedup2", row.name, row.mlp),
                    row.speedup[1],
                );
                m(
                    &mut metrics,
                    format!("{}@{}.speedup4", row.name, row.mlp),
                    row.speedup[2],
                );
                m(
                    &mut metrics,
                    format!("{}@{}.balance4", row.name, row.mlp),
                    row.balance,
                );
                mu(
                    &mut metrics,
                    format!("{}@{}.events_fired4", row.name, row.mlp),
                    row.events_fired[2],
                );
                m(
                    &mut metrics,
                    format!("{}@{}.idle_skip_mean_ps4", row.name, row.mlp),
                    row.idle_skip_mean_ps[2],
                );
            }
            JobOutput {
                rendered: channels::render(&r),
                metrics,
            }
        }
        other => return Err(format!("unknown artefact: {other}")),
    };
    Ok(out)
}

/// One stdout section of a planned run: which job's output to print under
/// which heading, and (for JSON output) the run coordinates.
#[derive(Debug, Clone)]
pub struct Section {
    /// Heading printed on stdout (`===== {heading} =====`).
    pub heading: String,
    /// The artefact name.
    pub artefact: String,
    /// The seed the job ran with; `None` for sweep aggregates.
    pub seed: Option<u64>,
    /// Index into the plan's job list.
    pub job: usize,
}

/// A planned DAG plus the order its results print in.
#[derive(Debug)]
pub struct Plan {
    /// The jobs, in topological order.
    pub specs: Vec<JobSpec>,
    /// stdout sections in print order.
    pub sections: Vec<Section>,
}

/// The FNV hash of the running binary's bytes, computed once per process.
/// The binary holds every code path, configuration default and the crate
/// version, so it changes whenever an artefact could. A binary that cannot
/// be read gets a fingerprint of its own process, which misses the cache
/// rather than risk a stale hit.
fn binary_fingerprint() -> &'static str {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    FINGERPRINT.get_or_init(|| match std::env::current_exe().and_then(std::fs::read) {
        Ok(bytes) => format!("{:016x}", hash_bytes(&bytes)),
        Err(e) => format!("unreadable binary ({e}), process {}", std::process::id()),
    })
}

fn key_material(name: &str, scale: Scale, seed: u64) -> Vec<String> {
    key_material_for(name, scale, seed, binary_fingerprint())
}

fn key_material_for(name: &str, scale: Scale, seed: u64, fingerprint: &str) -> Vec<String> {
    vec![
        format!("artefact:{name}"),
        format!("scale:{}", scale.name()),
        format!("seed:{seed}"),
        format!("binary:{fingerprint}"),
    ]
}

fn artefact_spec(name: &str, scale: Scale, seed: u64, jobs: usize) -> JobSpec {
    let owned = name.to_string();
    // `jobs` deliberately stays out of the key material: worker count never
    // changes artefact bytes, so cached results are shareable across it.
    JobSpec::new(
        format!("{name}@{}#{seed}", scale.name()),
        key_material(name, scale, seed),
        move |_deps| run_artefact_jobs(&owned, scale, seed, jobs),
    )
}

fn validate(names: &[String]) -> Result<(), String> {
    for n in names {
        if !ARTEFACTS.contains(&n.as_str()) {
            return Err(format!("unknown artefact: {n}"));
        }
    }
    Ok(())
}

/// Plans a plain run: one independent job per artefact. `jobs` is the
/// inner worker count handed to artefacts that fan out internally
/// (`0` = every core); it does not affect the cache key or output bytes.
///
/// # Errors
///
/// Returns `Err` for an unknown artefact name.
pub fn plan_artefacts(
    names: &[String],
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> Result<Plan, String> {
    validate(names)?;
    let mut specs = Vec::new();
    let mut sections = Vec::new();
    for name in names {
        sections.push(Section {
            heading: name.clone(),
            artefact: name.clone(),
            seed: Some(seed),
            job: specs.len(),
        });
        specs.push(artefact_spec(name, scale, seed, jobs));
    }
    Ok(Plan { specs, sections })
}

/// Plans a multi-seed sweep: per-seed jobs per artefact plus one
/// aggregation job per artefact depending on all of them.
///
/// # Errors
///
/// Returns `Err` for an unknown artefact name, an empty seed list or a
/// seed listed twice (its run would count twice in the mean and stdev).
pub fn plan_sweep(
    names: &[String],
    scale: Scale,
    seeds: &[u64],
    jobs: usize,
) -> Result<Plan, String> {
    validate(names)?;
    if seeds.is_empty() {
        return Err("sweep needs at least one seed".to_string());
    }
    for (i, seed) in seeds.iter().enumerate() {
        if seeds[..i].contains(seed) {
            return Err(format!("sweep seed {seed} is listed twice"));
        }
    }
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut sections = Vec::new();
    for name in names {
        let deps: Vec<usize> = seeds
            .iter()
            .map(|&seed| {
                specs.push(artefact_spec(name, scale, seed, jobs));
                specs.len() - 1
            })
            .collect();
        let mut material = key_material(name, scale, 0);
        material.push(format!("sweep:{seeds:?}"));
        let (agg_name, agg_scale, agg_seeds) = (name.clone(), scale, seeds.to_vec());
        sections.push(Section {
            heading: format!("sweep {name}"),
            artefact: name.clone(),
            seed: None,
            job: specs.len(),
        });
        specs.push(
            JobSpec::new(
                format!("sweep:{name}@{}", scale.name()),
                material,
                move |dep_outputs| Ok(aggregate(&agg_name, agg_scale, &agg_seeds, dep_outputs)),
            )
            .after(deps),
        );
    }
    Ok(Plan { specs, sections })
}

/// Sample mean and standard deviation.
#[allow(clippy::cast_precision_loss)]
fn mean_stdev(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Aggregates per-seed runs of one artefact into a mean ± stdev table over
/// every metric the artefact exposes.
fn aggregate(name: &str, scale: Scale, seeds: &[u64], runs: &[JobOutput]) -> JobOutput {
    let mut metrics = Vec::new();
    let mut t = Table::new(vec!["metric", "mean ± stdev"]);
    for (metric, _) in &runs[0].metrics {
        let xs: Vec<f64> = runs.iter().filter_map(|r| r.metric_value(metric)).collect();
        let (mean, sd) = mean_stdev(&xs);
        t.row(vec![metric.clone(), format!("{mean:.6} ± {sd:.6}")]);
        metrics.push((format!("{metric}.mean"), mean));
        metrics.push((format!("{metric}.stdev"), sd));
    }
    let body = if runs[0].metrics.is_empty() {
        "(artefact exposes no numeric metrics; all runs are identical)\n".to_string()
    } else {
        t.render()
    };
    let rendered = format!(
        "Sweep: {name} @ {} over {} seeds {seeds:?}\n{body}",
        scale.name(),
        seeds.len(),
    );
    JobOutput { rendered, metrics }
}

/// Renders one section's result as a single machine-readable JSON line.
#[must_use]
pub fn render_json(section: &Section, scale: Scale, out: &JobOutput) -> String {
    let v = Value::obj(vec![
        ("artefact", Value::Str(section.artefact.clone())),
        ("scale", Value::Str(scale.name().to_string())),
        ("seed", section.seed.map_or(Value::Null, Value::U64)),
        ("sweep", Value::Bool(section.seed.is_none())),
        (
            "metrics",
            Value::Obj(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect(),
            ),
        ),
    ]);
    v.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestrator::hash::stable_key;
    use orchestrator::{run_dag, DiskCache, RunOptions};

    #[test]
    fn registry_covers_every_module_once() {
        let mut sorted = ARTEFACTS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ARTEFACTS.len(), "duplicate artefact id");
        assert!(ARTEFACTS.contains(&"diag"), "diag must be orchestrated");
        assert!(
            ARTEFACTS.contains(&"oracle"),
            "the simulator oracle must be orchestrated"
        );
        assert!(
            ARTEFACTS.contains(&"serve"),
            "the serve-pipeline model must be orchestrated"
        );
        assert!(
            ARTEFACTS.contains(&"attack"),
            "the adversarial campaign must be orchestrated"
        );
        assert!(
            ARTEFACTS.contains(&"arena"),
            "the mitigation arena must be orchestrated"
        );
    }

    #[test]
    fn arena_artefact_surfaces_per_defense_metrics() {
        let job = run_artefact_jobs("arena", Scale::Trial, 0, 2).unwrap();
        assert_eq!(
            job.metric_value("pt_guard.successes"),
            Some(0.0),
            "PT-Guard must leave no undetected corruption"
        );
        assert_eq!(job.metric_value("catt.successes"), Some(0.0));
        assert!(job.metric_value("pt_guard.gmean_norm_ipc").unwrap() > 0.0);
        assert!(job.metric_value("dapper.attack_delay_ps").unwrap() > 0.0);
        assert!(job.metric_value("trr.storage_bytes").unwrap() > 0.0);
    }

    #[test]
    fn attack_artefact_surfaces_provenance_and_guess_budget() {
        let job = run_artefact_jobs("attack", Scale::Trial, 0, 2).unwrap();
        assert_eq!(
            job.metric_value("pthammer.prov_explicit"),
            Some(0.0),
            "PThammer cells must hammer purely through walks"
        );
        assert!(job.metric_value("pthammer.prov_walk").unwrap() > 0.0);
        assert!(job.metric_value("max_guesses").unwrap() <= 372.0);
        assert!(job.metric_value("throttle.delay_ps").unwrap() > 0.0);
    }

    #[test]
    fn serve_artefact_is_worker_count_invariant() {
        let a = run_artefact_jobs("serve", Scale::Trial, 0, 1).unwrap();
        let b = run_artefact_jobs("serve", Scale::Trial, 0, 4).unwrap();
        assert_eq!(a.rendered, b.rendered);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.metric_value("rate1200000.mean_batch").unwrap() > 1.0);
    }

    #[test]
    fn oracle_artefact_runs_clean_at_trial_scale() {
        let job = run_artefact_jobs("oracle", Scale::Trial, 0, 1).unwrap();
        assert_eq!(job.metric_value("divergences"), Some(0.0));
        assert!(job.rendered.contains("Verdict: CLEAN"));
    }

    #[test]
    fn seed_zero_matches_legacy_render() {
        let legacy = coverage::render(&coverage::run_seeded(Scale::Trial, 0));
        let job = run_artefact_jobs("coverage", Scale::Trial, 0, 1).unwrap();
        assert_eq!(job.rendered, legacy);
    }

    #[test]
    fn seeds_decorrelate_stochastic_artefacts() {
        let a = run_artefact_jobs("coverage", Scale::Trial, 1, 1).unwrap();
        let b = run_artefact_jobs("coverage", Scale::Trial, 2, 1).unwrap();
        assert_ne!(
            a.metric_value("erroneous"),
            b.metric_value("erroneous"),
            "different seeds should draw different fault patterns"
        );
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(binary_fingerprint(), binary_fingerprint());
        assert_eq!(binary_fingerprint().len(), 16);
    }

    #[test]
    fn two_fingerprints_give_two_keys() {
        let key = |fp| stable_key(&key_material_for("fig6", Scale::Quick, 0, fp));
        assert_ne!(key("aaaa"), key("bbbb"));
        assert_eq!(key("aaaa"), key("aaaa"));
    }

    #[test]
    fn a_new_binary_reexecutes_a_cached_artefact() {
        let dir =
            std::env::temp_dir().join(format!("ptguard-exp-fingerprint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |fingerprint: &str| {
            let spec = JobSpec::new(
                "table1",
                key_material_for("table1", Scale::Trial, 0, fingerprint),
                |_| run_artefact_jobs("table1", Scale::Trial, 0, 1),
            );
            let opts = RunOptions {
                jobs: 1,
                cache: Some(DiskCache::open(&dir).expect("cache dir")),
                ..RunOptions::default()
            };
            let report = run_dag(vec![spec], opts);
            assert_eq!(report.error, None);
            (report.executed, report.cache_hits)
        };
        assert_eq!(run("aaaa"), (1, 0), "cold run executes");
        assert_eq!(run("aaaa"), (0, 1), "same binary hits the cache");
        assert_eq!(run("bbbb"), (1, 0), "a new binary re-executes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_plan_has_aggregate_after_per_seed_jobs() {
        let plan = plan_sweep(&["priorwork".to_string()], Scale::Trial, &[1, 2, 3], 1).unwrap();
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(plan.specs[3].deps, vec![0, 1, 2]);
        assert_eq!(plan.sections.len(), 1);
        assert_eq!(plan.sections[0].job, 3);
    }

    #[test]
    fn sweep_plan_rejects_a_repeated_seed() {
        let names = ["priorwork".to_string()];
        let err = plan_sweep(&names, Scale::Trial, &[1, 2, 1], 1).err();
        assert_eq!(err.as_deref(), Some("sweep seed 1 is listed twice"));
        assert!(plan_sweep(&names, Scale::Trial, &[], 1).is_err());
    }

    #[test]
    fn unknown_artefact_is_rejected() {
        assert!(plan_artefacts(&["nope".to_string()], Scale::Trial, 0, 1).is_err());
        assert!(run_artefact_jobs("nope", Scale::Trial, 0, 1).is_err());
    }
}

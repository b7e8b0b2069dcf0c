//! A deterministic discrete-event model of the serve pipeline.
//!
//! The live TCP path is inherently wall-clock-dependent, so the cacheable
//! `exp serve` artefact runs this model instead: the same seeded Poisson
//! arrivals as the load generator, the same coalescing policy as
//! [`crate::core`] (greedy batches of up to [`MAX_BATCH`] backlogged
//! jobs), and the *real* MAC engine answering every request — only the
//! clock is virtual. Service time follows a fixed documented cost model
//! calibrated against `bench qarma` on the reference machine
//! ([`PER_LINE_NS`], [`BATCH_OVERHEAD_NS`]), so latencies, batch
//! histograms, and throughput are byte-identical across machines and job
//! counts while the MAC verification work stays genuine.
//!
//! The event loop itself is cheap integer arithmetic and runs
//! sequentially; the expensive part — computing every batch's MACs — is
//! sharded across the orchestrator pool by batch ranges, which cannot
//! change the result because batch boundaries are fixed by the plan.

use orchestrator::ThreadPool;
use rng::SplitMix64;
use trace::format::crc32;

use crate::core::{BatchOutcome, Coalescer, Engine, Job, JobKind, MAX_BATCH};
use crate::corpus::CorpusEntry;
use crate::hist::Log2Hist;
use crate::load::{arrival_schedule, request_for};
use crate::proto::Request;

/// Modeled per-line MAC service cost (ns). Calibrated: the batched QARMA
/// kernel verifies one line in ≈640 ns on the reference machine.
pub const PER_LINE_NS: u64 = 650;

/// Modeled fixed per-batch drain overhead (ns): lock hand-off plus kernel
/// entry, the part coalescing amortises.
pub const BATCH_OVERHEAD_NS: u64 = 500;

/// Fraction of requests that are corrupted before being sent, exercising
/// the correct path: 1 in `FAULT_EVERY` requests becomes a `Correct` with
/// one flipped protected bit.
pub const FAULT_EVERY: usize = 1024;

/// One planned service batch: jobs `first..first + len` completing
/// together at `done_ns`.
#[derive(Debug, Clone, Copy)]
struct PlannedBatch {
    first: usize,
    len: usize,
    done_ns: u64,
}

/// Model outcome for one target rate.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The arrival rate fed to the model (requests/second).
    pub target_rps: u64,
    /// Requests simulated.
    pub requests: u64,
    /// Batches drained.
    pub batches: u64,
    /// `batch_hist[s - 1]` counts batches of size `s`.
    pub batch_hist: [u64; MAX_BATCH],
    /// Requests completed per second of virtual time.
    pub achieved_rps: f64,
    /// Modeled latency histogram (ns, arrival to batch completion).
    pub hist: Log2Hist,
    /// Real MAC outcomes across all simulated requests.
    pub outcome: BatchOutcome,
    /// Order-independent fold of every encoded response's CRC — pins the
    /// full response stream, proving the MACs were actually computed.
    pub checksum: u64,
}

impl SimReport {
    /// Mean jobs per batch — the modeled coalescing factor.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Plans the batch schedule: a single server greedily drains up to
/// [`MAX_BATCH`] backlogged jobs per batch, paying the cost model per
/// batch. Also fills the latency histogram, since latency is pure plan
/// arithmetic.
fn plan_batches(schedule: &[u64], hist: &mut Log2Hist) -> Vec<PlannedBatch> {
    let mut batches = Vec::new();
    let mut free_at = 0u64;
    let mut i = 0usize;
    while i < schedule.len() {
        let start = free_at.max(schedule[i]);
        // Jobs already arrived by `start`, capped at the batch size. Under
        // light load this is 1 (no backlog → no coalescing); under
        // saturation it climbs to MAX_BATCH.
        let mut len = 1usize;
        while len < MAX_BATCH && i + len < schedule.len() && schedule[i + len] <= start {
            len += 1;
        }
        let done = start + BATCH_OVERHEAD_NS + PER_LINE_NS * len as u64;
        for &arrived in &schedule[i..i + len] {
            hist.record((done - arrived).max(1));
        }
        batches.push(PlannedBatch {
            first: i,
            len,
            done_ns: done,
        });
        free_at = done;
        i += len;
    }
    batches
}

/// Builds the job for global request index `i`, injecting a single-bit
/// fault (and switching to a `Correct` request) every [`FAULT_EVERY`]
/// requests.
fn job_for(i: usize, corpus: &[CorpusEntry], embed_every: usize, seed: u64) -> Job {
    let req = request_for(i, corpus, embed_every);
    let (kind, id, addr, mut line) = match req {
        Request::Embed { id, addr, line } => (JobKind::Embed, id, addr, line),
        Request::Verify { id, addr, line } => (JobKind::Verify, id, addr, line),
        _ => unreachable!("request_for only emits embed/verify"),
    };
    let kind = if kind == JobKind::Verify && i % FAULT_EVERY == FAULT_EVERY - 1 {
        // Deterministically flip one protected-region bit.
        let mut r = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let word = r.gen_range_usize(0, 8);
        let bit = r.gen_range_u64(0, 5); // P/W/U/PWT/PCD: always protected
        line.set_word(word, line.word(word) ^ (1 << bit));
        JobKind::Correct
    } else {
        kind
    };
    Job {
        kind,
        id,
        addr: pagetable::addr::PhysAddr::new(addr),
        line,
    }
}

/// Shard result: MAC outcomes plus the response-stream checksum.
#[derive(Debug, Default, Clone, Copy)]
struct ShardResult {
    outcome: BatchOutcome,
    checksum: u64,
}

/// Simulates one target rate: plan sequentially, compute the real MACs in
/// parallel shards. Deterministic for any `pool` size.
#[must_use]
pub fn simulate_rate(
    engine: &Engine,
    corpus: &[CorpusEntry],
    rate: u64,
    requests: usize,
    seed: u64,
    embed_every: usize,
    pool: &ThreadPool,
) -> SimReport {
    let schedule = arrival_schedule(rate, requests, seed);
    let mut hist = Log2Hist::new();
    let batches = plan_batches(&schedule, &mut hist);

    let mut batch_hist = [0u64; MAX_BATCH];
    for b in &batches {
        batch_hist[b.len - 1] += 1;
    }

    // Shard the MAC work by contiguous batch ranges.
    let shards = 16usize.min(batches.len().max(1));
    let per = batches.len().div_ceil(shards.max(1)).max(1);
    let results = pool.map_indexed(shards, |s| {
        let lo = (s * per).min(batches.len());
        let hi = ((s + 1) * per).min(batches.len());
        let mut coalescer = Coalescer::new();
        let mut jobs: Vec<Job> = Vec::with_capacity(MAX_BATCH);
        let mut scratch = Vec::with_capacity(crate::proto::MAX_BODY);
        let mut res = ShardResult::default();
        for b in &batches[lo..hi] {
            jobs.clear();
            jobs.extend((b.first..b.first + b.len).map(|i| job_for(i, corpus, embed_every, seed)));
            let outcome = coalescer.respond(engine, &jobs, |_, resp| {
                resp.encode(&mut scratch);
                res.checksum = res.checksum.wrapping_add(u64::from(crc32(&scratch)));
            });
            res.outcome.embeds += outcome.embeds;
            res.outcome.verifies += outcome.verifies;
            res.outcome.corrects += outcome.corrects;
            res.outcome.mismatches += outcome.mismatches;
            res.outcome.corrected += outcome.corrected;
            res.outcome.uncorrectable += outcome.uncorrectable;
        }
        res
    });

    let mut outcome = BatchOutcome::default();
    let mut checksum = 0u64;
    for r in &results {
        outcome.embeds += r.outcome.embeds;
        outcome.verifies += r.outcome.verifies;
        outcome.corrects += r.outcome.corrects;
        outcome.mismatches += r.outcome.mismatches;
        outcome.corrected += r.outcome.corrected;
        outcome.uncorrectable += r.outcome.uncorrectable;
        checksum = checksum.wrapping_add(r.checksum);
    }

    let first = schedule.first().copied().unwrap_or(0);
    let last_done = batches.last().map_or(0, |b| b.done_ns);
    #[allow(clippy::cast_precision_loss)]
    let achieved_rps = if last_done > first {
        requests as f64 * 1.0e9 / (last_done - first) as f64
    } else {
        0.0
    };
    SimReport {
        target_rps: rate,
        requests: requests as u64,
        batches: batches.len() as u64,
        batch_hist,
        achieved_rps,
        hist,
        outcome,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptguard::PtGuardConfig;
    use workloads::pte_census::CensusConfig;

    fn setup() -> (Engine, Vec<CorpusEntry>) {
        let engine = Engine::new(&PtGuardConfig::default());
        let corpus = crate::corpus::census_corpus(
            &CensusConfig {
                processes: 4,
                lines_per_process: 32,
                ..CensusConfig::default()
            },
            128,
            &engine,
            &ThreadPool::new(2),
        );
        (engine, corpus)
    }

    #[test]
    fn light_load_does_not_coalesce_saturation_does() {
        let (engine, corpus) = setup();
        let pool = ThreadPool::new(2);
        // 100 k/s: inter-arrival 10 µs >> 1.15 µs service — no backlog.
        let light = simulate_rate(&engine, &corpus, 100_000, 2_000, 7, 8, &pool);
        assert!(light.mean_batch() < 1.1, "light: {}", light.mean_batch());
        // 2 M/s: far beyond scalar capacity (~870 k/s) — deep coalescing.
        let heavy = simulate_rate(&engine, &corpus, 2_000_000, 2_000, 7, 8, &pool);
        assert!(heavy.mean_batch() > 6.0, "heavy: {}", heavy.mean_batch());
        assert!(heavy.hist.percentile(99.0) > light.hist.percentile(99.0));
    }

    #[test]
    fn simulation_is_parallelism_invariant() {
        let (engine, corpus) = setup();
        let a = simulate_rate(&engine, &corpus, 600_000, 3_000, 11, 8, &ThreadPool::new(1));
        let b = simulate_rate(&engine, &corpus, 600_000, 3_000, 11, 8, &ThreadPool::new(8));
        assert_eq!(a.hist, b.hist);
        assert_eq!(a.batch_hist, b.batch_hist);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.outcome.mismatches, b.outcome.mismatches);
    }

    #[test]
    fn verifies_pass_and_injected_faults_get_corrected() {
        let (engine, corpus) = setup();
        let pool = ThreadPool::new(4);
        let r = simulate_rate(&engine, &corpus, 400_000, 3 * FAULT_EVERY, 3, 8, &pool);
        // All mismatches come from the injected faults, and the corrector
        // recovers every single-bit flip.
        assert_eq!(r.outcome.corrects, 3);
        assert_eq!(r.outcome.mismatches, 3);
        assert_eq!(r.outcome.corrected, 3);
        assert_eq!(r.outcome.uncorrectable, 0);
        assert_eq!(
            r.outcome.embeds + r.outcome.verifies + r.outcome.corrects,
            r.requests
        );
    }
}

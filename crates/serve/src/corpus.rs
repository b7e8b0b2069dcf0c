//! Census-derived request corpora.
//!
//! The load generator and the queueing model replay realistic PTE traffic:
//! lines drawn from the [`workloads::pte_census`] generative model (the
//! paper's Section VI-B population), each pre-protected with its MAC so
//! verify requests exercise the full embed → verify loop. Corpus entry `i`
//! is line `i % lines_per_process` of census process `(i /
//! lines_per_process) % processes`, so any slice of the corpus can be
//! produced on any shard; MAC embedding batches through the same stacked
//! kernel the server uses.

use orchestrator::ThreadPool;
use pagetable::addr::PhysAddr;
use ptguard::pattern::embed_mac_for;
use ptguard::Line;
use workloads::pte_census::{stream_process, CensusConfig};

use crate::core::Engine;

/// Physical address of corpus entry 0; entry `i` lives at `BASE + 64 i`.
pub const CORPUS_BASE_ADDR: u64 = 0x1_0000_0000;

/// Fixed shard count for parallel corpus generation (parallelism-invariant
/// for the same reason as the census shards).
const SHARDS: usize = 16;

/// One replayable request: a census line, its address, and its protected
/// (MAC-embedded) form.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// The line's physical address.
    pub addr: PhysAddr,
    /// The raw census line (MAC region zero, as the OS writes it).
    pub raw: Line,
    /// The line with its MAC embedded (as DRAM stores it).
    pub protected: Line,
}

/// Generates `n` corpus entries from the census model, MACs pre-embedded
/// with `engine`, sharded across `pool`. Deterministic for any pool size.
#[must_use]
pub fn census_corpus(
    cfg: &CensusConfig,
    n: usize,
    engine: &Engine,
    pool: &ThreadPool,
) -> Vec<CorpusEntry> {
    let shards = SHARDS.min(n.max(1));
    let per = n.div_ceil(shards);
    let parts = pool.map_indexed(shards, |s| {
        let lo = s * per;
        let hi = ((s + 1) * per).min(n);
        corpus_slice(cfg, lo, hi.max(lo), engine)
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Generates corpus entries `lo..hi` sequentially.
fn corpus_slice(cfg: &CensusConfig, lo: usize, hi: usize, engine: &Engine) -> Vec<CorpusEntry> {
    let lpp = cfg.lines_per_process.max(1);
    let mut out = Vec::with_capacity(hi - lo);
    let mut i = lo;
    while i < hi {
        let pid = (i / lpp) % cfg.processes.max(1);
        let first_line = i % lpp;
        // Take the contiguous run of entries this process covers.
        let take = (hi - i).min(lpp - first_line);
        let mut idx = 0usize;
        stream_process(cfg, pid, |line| {
            if idx >= first_line && idx < first_line + take {
                let entry = i + (idx - first_line);
                out.push(CorpusEntry {
                    addr: PhysAddr::new(CORPUS_BASE_ADDR + 64 * entry as u64),
                    raw: Line::from_words(*line),
                    protected: Line::ZERO, // filled below, batched
                });
            }
            idx += 1;
        });
        i += take;
    }
    embed_batched(engine, &mut out);
    out
}

/// Fills in `protected` via the batched MAC kernel, 8 lines at a time.
fn embed_batched(engine: &Engine, entries: &mut [CorpusEntry]) {
    let fmt = engine.mac().format();
    let mut macs = Vec::with_capacity(8);
    for chunk in entries.chunks_mut(8) {
        let items: Vec<(Line, PhysAddr)> = chunk.iter().map(|e| (e.raw, e.addr)).collect();
        macs.clear();
        engine.mac().compute_batch_into(&items, &mut macs);
        for (e, &mac) in chunk.iter_mut().zip(macs.iter()) {
            e.protected = embed_mac_for(&e.raw, mac, fmt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptguard::PtGuardConfig;

    fn small_cfg() -> CensusConfig {
        CensusConfig {
            processes: 5,
            lines_per_process: 20,
            ..CensusConfig::default()
        }
    }

    #[test]
    fn corpus_is_parallelism_invariant_and_verified() {
        let engine = Engine::new(&PtGuardConfig::default());
        let cfg = small_cfg();
        let pool1 = ThreadPool::new(1);
        let pool8 = ThreadPool::new(8);
        let a = census_corpus(&cfg, 70, &engine, &pool1);
        let b = census_corpus(&cfg, 70, &engine, &pool8);
        assert_eq!(a.len(), 70);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.addr, y.addr);
            assert_eq!(x.raw, y.raw);
            assert_eq!(x.protected, y.protected);
        }
        // Every protected line actually verifies at its address.
        use ptguard::pattern::extract_mac_for;
        for e in &a {
            let mac = engine.mac().compute(&e.raw, e.addr);
            assert_eq!(extract_mac_for(&e.protected, engine.mac().format()), mac);
        }
    }

    #[test]
    fn corpus_wraps_past_the_census_size() {
        let engine = Engine::new(&PtGuardConfig::default());
        let cfg = small_cfg(); // 100 lines total
        let corpus = census_corpus(&cfg, 130, &engine, &ThreadPool::new(2));
        assert_eq!(corpus.len(), 130);
        // Entry 100 wraps to process 0 line 0 — same raw line as entry 0,
        // but a different address, hence a different protected form.
        assert_eq!(corpus[100].raw, corpus[0].raw);
        assert_ne!(corpus[100].addr, corpus[0].addr);
        assert_ne!(corpus[100].protected, corpus[0].protected);
    }
}

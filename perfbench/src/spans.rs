//! In-memory span log for the traced runs.
//!
//! A span is a named interval with a parent and an op id. Spans are kept
//! in memory while the run executes and written out as TSV when it ends.
//!
//! Reading the clock costs tens of nanoseconds, as much as some of the
//! calls being timed, so [`SpanCost`] calibrates what an empty span costs
//! inside and outside itself; callers subtract it from span durations and
//! from their parents' self time.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, ns since the log's epoch.
    pub start: u64,
    pub dur: u32,
    pub parent: u32,
    pub op: u32,
    pub kind: u8,
}

/// Per-kind totals over a log.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: f64,
}

pub struct SpanLog {
    epoch: Instant,
    names: &'static [&'static str],
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(names: &'static [&'static str], capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            names,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the log's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    #[inline]
    pub fn push(&mut self, kind: u8, start: u64, end: u64, parent: u32, op: u32) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("span index fits u32");
        self.spans.push(Span {
            start,
            dur: u32::try_from(end.saturating_sub(start)).unwrap_or(u32::MAX),
            parent,
            op,
            kind,
        });
        index
    }

    /// Opens a span whose end is filled in by [`SpanLog::close`] (for
    /// parents, which must exist before their children).
    pub fn open(&mut self, kind: u8, start: u64, parent: u32, op: u32) -> u32 {
        self.push(kind, start, start, parent, op)
    }

    pub fn close(&mut self, index: u32, end: u64) {
        let s = &mut self.spans[index as usize];
        s.dur = u32::try_from(end.saturating_sub(s.start)).unwrap_or(u32::MAX);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per kind, indexed like `names`.
    pub fn totals(&self) -> Vec<KindTotals> {
        let mut out = vec![KindTotals::default(); self.names.len()];
        for s in &self.spans {
            let t = &mut out[s.kind as usize];
            t.count += 1;
            t.total_ns += f64::from(s.dur);
        }
        out
    }

    /// Writes every span as a TSV row `kind start_ns dur_ns parent op`,
    /// after a header naming the kinds (`# kinds: 0=name ...`); `parent`
    /// is a row index (0 = first span row), -1 for a root.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        let kinds: Vec<String> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{i}={n}"))
            .collect();
        writeln!(w, "# kinds: {}", kinds.join(" "))?;
        writeln!(w, "kind\tstart_ns\tdur_ns\tparent\top")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(w, "{}\t{}\t{}\t{parent}\t{}", s.kind, s.start, s.dur, s.op)?;
        }
        w.flush()
    }
}

/// What recording one span costs, calibrated on empty spans recorded
/// exactly as the traced loops record theirs (median of five rounds).
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Clock time an empty span measures: subtract from every span.
    pub inside_ns: f64,
    /// The rest of an empty span's cost, which lands in its parent's self
    /// time: subtract once per child from a parent's self time.
    pub outside_ns: f64,
}

impl SpanCost {
    pub fn calibrate() -> Self {
        const N: usize = 200_000;
        let mut rounds: Vec<(f64, f64)> = (0..5)
            .map(|_| {
                let mut log = SpanLog::new(&["empty"], N);
                let t0 = log.now();
                for i in 0..N {
                    let a = log.now();
                    let b = log.now();
                    log.push(0, a, b, NO_PARENT, i as u32);
                }
                let per_span = (log.now() - t0) as f64 / N as f64;
                let inside = log.totals()[0].total_ns / N as f64;
                (inside, per_span - inside)
            })
            .collect();
        rounds.sort_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));
        let (inside_ns, outside_ns) = rounds[rounds.len() / 2];
        Self {
            inside_ns,
            outside_ns,
        }
    }
}

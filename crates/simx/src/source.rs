//! The op-stream abstraction the simulated cores execute from.
//!
//! A [`Machine`](crate::Machine) is generic over where its instruction
//! stream comes from: live generation ([`TraceGenerator`]) or replay of a
//! recorded binary trace ([`trace::TraceReader`]). Both produce the same
//! [`Op`]s, so a replayed run is bit-identical to the live run it was
//! recorded from.

use trace::TraceReader;
use workloads::tracegen::{Op, TraceGenerator};

/// A source of simulated instructions.
///
/// Sources are *pull*-driven and must yield an op for every call: the
/// runner executes a fixed instruction budget, so a source that can run
/// dry (a trace) must hold at least that many ops — running out mid-run is
/// a caller error and panics rather than silently shortening the run.
pub trait OpSource {
    /// Produces the next instruction.
    fn next_op(&mut self) -> Op;
}

impl OpSource for TraceGenerator {
    #[inline]
    fn next_op(&mut self) -> Op {
        TraceGenerator::next_op(self)
    }
}

/// Replay: ops come off the background decode thread two chunks ahead of
/// the core consuming them.
///
/// # Panics
///
/// Panics if the trace is exhausted or fails to decode mid-run (the run
/// budget must not exceed the trace's `op_count`, and a corrupt trace
/// should be rejected up front by inspecting it, not half-simulated).
impl OpSource for TraceReader {
    fn next_op(&mut self) -> Op {
        match self.try_next() {
            Ok(Some(op)) => op,
            Ok(None) => panic!("trace exhausted mid-run (op budget exceeds recorded op count)"),
            Err(e) => panic!("trace replay failed: {e}"),
        }
    }
}

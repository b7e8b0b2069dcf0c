//! The windowed in-order driver behind [`crate::runner::run`], which both
//! the single-core figures and the multi-core model run through.
//!
//! Each instruction advances the front-end clock by one cycle, each memory
//! op is issued into the pipelined [`MemorySystem`], and when the in-flight
//! window is full the oldest op retires, folding `t_issue + latency` into
//! the in-order retire horizon.
//!
//! Issue goes through [`MemorySystem::pipe_issue_event`], and the window
//! semantics are those of DESIGN.md §9:
//!
//! * a hit resolves at issue: it takes no slot, and stalls the front end
//!   for its latency (the clock moves to `max(finish_prev, issue +
//!   latency)`);
//! * a miss holds a slot until it retires: [`MemorySystem::pipe_wait`]
//!   runs the event pump, which jumps virtual time to the next DRAM
//!   completion; misses retire in order,
//!   `finish = max(finish_prev, issue + latency)`.
//!
//! At `mlp = 1` this is the paper's blocking sum, checked op for op
//! against the reference core `oracle::refmachine`
//! (`tests/pipeline_identity.rs`).

use std::collections::VecDeque;

use memsys::system::IssueOutcome;
use memsys::MemorySystem;
use pagetable::addr::VirtAddr;

/// The issue/retire window over a pipelined [`MemorySystem`].
#[derive(Debug)]
pub(crate) struct WindowedDriver {
    /// In-flight op cap ([`memsys::MemSysConfig::mlp`], clamped to ≥ 1).
    window: usize,
    /// Front-end clock (instruction issue), in cycles.
    clock: u64,
    /// In-order retire horizon: the max of every retired op's finish time.
    finish_prev: u64,
    /// `(op id, issue time)` of in-flight ops, oldest first.
    inflight: VecDeque<(u64, u64)>,
}

impl WindowedDriver {
    pub(crate) fn new(window: usize) -> Self {
        Self {
            window: window.max(1),
            clock: 0,
            finish_prev: 0,
            inflight: VecDeque::new(),
        }
    }

    /// Advances the front-end clock by one instruction.
    pub(crate) fn tick_instruction(&mut self) {
        self.clock += 1;
    }

    /// Issues one memory op; blocks (retiring oldest-first) while the
    /// window is full. Synchronous completions fold into the clock at
    /// issue and never enter the window.
    pub(crate) fn mem_op(&mut self, sys: &mut MemorySystem, va: VirtAddr, write: bool) {
        match sys.pipe_issue_event(va, write) {
            IssueOutcome::Done(out) => {
                debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
                // A hit takes no slot but stalls the front end for its
                // latency: the fold moves the clock to its finish.
                self.fold(self.clock, out.cycles());
            }
            IssueOutcome::Pending(id) => self.track(sys, id),
        }
    }

    /// Retires every in-flight op (end of a measured region or phase).
    pub(crate) fn drain(&mut self, sys: &mut MemorySystem) {
        while !self.inflight.is_empty() {
            self.retire_one(sys);
        }
    }

    /// The run's cycle count so far.
    pub(crate) fn clock(&self) -> u64 {
        self.clock.max(self.finish_prev)
    }

    fn track(&mut self, sys: &mut MemorySystem, id: u64) {
        self.inflight.push_back((id, self.clock));
        while self.inflight.len() >= self.window {
            self.retire_one(sys);
        }
    }

    fn retire_one(&mut self, sys: &mut MemorySystem) {
        let (id, t_issue) = self
            .inflight
            .pop_front()
            .expect("retire needs an op in flight");
        let out = sys.pipe_wait(id);
        debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
        self.fold(t_issue, out.cycles());
    }

    /// Folds one finished op into the in-order retire horizon. At a
    /// window of 1 this reproduces the blocking `+=` chain exactly:
    /// `finish_prev <= t_issue` always holds, so the max is the sum.
    fn fold(&mut self, t_issue: u64, cycles: u64) {
        let finish = (t_issue + cycles).max(self.finish_prev);
        self.finish_prev = finish;
        self.clock = self.clock.max(finish);
    }
}

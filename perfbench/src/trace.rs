//! Spans recorded from outside the program, by wrapping its public
//! layer interfaces: an [`InferenceEngine`] wrapper times every stage
//! call the runtime makes, and a [`Scheduler`] wrapper times every pick.
//! Spans stay in memory and are written out when the run ends.

use eugene_sched::{Scheduler, TaskId, TaskView};
use eugene_serve::{EngineSession, InferenceEngine, PlanCacheStats, Precision, StageReport};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `next_stage` / `next_stage_batch` call into the engine.
    Stage,
    /// One `Scheduler::assign` call from the runtime's coordinator.
    Assign,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Stage => "engine.stage",
            SpanKind::Assign => "sched.assign",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start: Instant,
    pub end: Instant,
    /// Stage index the call ran (0 for scheduler spans).
    pub stage: u32,
    /// Rows in the call: requests in the batch, or tasks offered to the
    /// scheduler.
    pub rows: u32,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// Shared in-memory span store.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Arc<Mutex<Vec<Span>>>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            spans: Arc::new(Mutex::new(Vec::with_capacity(1 << 16))),
        }
    }

    fn record(&self, kind: SpanKind, start: Instant, stage: usize, rows: usize) {
        let span = Span {
            kind,
            start,
            end: Instant::now(),
            stage: stage as u32,
            rows: rows as u32,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes the spans as CSV, times in microseconds since `origin`.
    pub fn write_csv(&self, path: &Path, origin: Instant, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {stamp}")?;
        writeln!(out, "name,start_us,end_us,stage,rows")?;
        for s in self.spans() {
            let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{},{:.1},{:.1},{},{}",
                s.kind.name(),
                at(s.start),
                at(s.end),
                s.stage,
                s.rows
            )?;
        }
        out.flush()
    }
}

/// Engine wrapper that records a [`SpanKind::Stage`] span per call.
///
/// Sessions are wrapped too, because the runtime's batch-of-one path
/// calls `EngineSession::next_stage` directly. Batched calls unwrap the
/// sessions and hand the inner ones to the wrapped engine, so its fused
/// path (which downcasts to its own session type) still runs.
pub struct TracedEngine {
    inner: Arc<dyn InferenceEngine>,
    log: SpanLog,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn InferenceEngine>, log: SpanLog) -> Self {
        Self { inner, log }
    }
}

struct TracedSession {
    inner: Option<Box<dyn EngineSession>>,
    log: SpanLog,
}

impl TracedSession {
    fn inner(&mut self) -> &mut Box<dyn EngineSession> {
        self.inner
            .as_mut()
            .expect("session is only unwrapped during a batch call")
    }
}

impl EngineSession for TracedSession {
    fn next_stage(&mut self) -> Option<StageReport> {
        let stage = self.inner().stages_done();
        let start = Instant::now();
        let report = self.inner().next_stage();
        if report.is_some() {
            self.log.record(SpanKind::Stage, start, stage, 1);
        }
        report
    }

    fn stages_done(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.stages_done())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn traced(session: &mut Box<dyn EngineSession>) -> &mut TracedSession {
    session
        .as_any_mut()
        .downcast_mut::<TracedSession>()
        .expect("this engine only hands out traced sessions")
}

impl InferenceEngine for TracedEngine {
    fn num_stages(&self) -> usize {
        self.inner.num_stages()
    }

    fn stage_precision(&self, stage: usize) -> Precision {
        self.inner.stage_precision(stage)
    }

    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
        Box::new(TracedSession {
            inner: Some(self.inner.begin(payload)),
            log: self.log.clone(),
        })
    }

    fn next_stage_batch(&self, batch: &mut [Box<dyn EngineSession>]) -> Vec<Option<StageReport>> {
        let mut inner: Vec<Box<dyn EngineSession>> = batch
            .iter_mut()
            .map(|s| traced(s).inner.take().expect("session present"))
            .collect();
        let stage = inner.first().map_or(0, |s| s.stages_done());
        let start = Instant::now();
        let reports = self.inner.next_stage_batch(&mut inner);
        self.log.record(SpanKind::Stage, start, stage, inner.len());
        for (s, session) in batch.iter_mut().zip(inner) {
            traced(s).inner = Some(session);
        }
        reports
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.inner.plan_cache_stats()
    }
}

/// Scheduler wrapper that records a [`SpanKind::Assign`] span per pick.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    log: SpanLog,
}

impl TracedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, log: SpanLog) -> Self {
        Self { inner, log }
    }
}

impl Scheduler for TracedScheduler {
    fn assign(&mut self, tasks: &[TaskView<'_>], slots: usize) -> Vec<TaskId> {
        let start = Instant::now();
        let picked = self.inner.assign(tasks, slots);
        self.log.record(SpanKind::Assign, start, 0, tasks.len());
        picked
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! the library's public functions: each `run_until` step, each workload
//! callback (through [`Timed`]), and each layer replay. The recorder is
//! thread-local because the engine runs serially (one shard) on the
//! calling thread, so every callback lands on the thread that installed
//! it. When no recorder is installed, [`span`] is a plain call.

use slice::core::{ClientIo, Workload};
use slice::nfsproto::{NfsReply, ReplyBody};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark crosses.
pub const SETUP: &str = "setup";
pub const RUN: &str = "run";
pub const STEP: &str = "sim.step";
pub const CALLBACK: &str = "workloads.callback";

/// No parent.
const ROOT: u32 = u32::MAX;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Replies seen by the workloads, by NFS procedure: (count, payload bytes).
pub type Mix = BTreeMap<u32, (u64, u64)>;

/// Everything a traced repetition recorded.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub mix: Mix,
}

struct Recorder {
    origin: Instant,
    open: Vec<u32>,
    rec: Recording,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            open: Vec::new(),
            rec: Recording::default(),
        })
    });
}

/// Removes the recorder and returns what it holds.
pub fn finish() -> Recording {
    REC.with(|r| r.borrow_mut().take())
        .map(|r| r.rec)
        .unwrap_or_default()
}

/// True while a recorder is installed.
pub fn active() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Runs `f` inside a span named `name` when a recorder is installed.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.rec.spans.len() as u32;
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.rec.spans.push(Span {
            name,
            parent: rec.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.open.pop();
                rec.rec.spans[id as usize].end_ns = rec.origin.elapsed().as_nanos() as u64;
            }
        });
    }
    out
}

fn note_reply(reply: &NfsReply) {
    let bytes = match &reply.body {
        ReplyBody::Read { data, .. } => data.len() as u64,
        ReplyBody::Write { count, .. } => u64::from(*count),
        _ => 0,
    };
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let e = rec.rec.mix.entry(reply.proc as u32).or_insert((0, 0));
            e.0 += 1;
            e.1 += bytes;
        }
    });
}

/// Delegating workload wrapper of the traced run: times every callback
/// into the workload layer and notes the reply mix for the replays. It
/// forwards every call unchanged, so the simulation is the same as
/// without it (the run's digest proves it).
pub struct Timed(pub Box<dyn Workload>);

impl Workload for Timed {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        span(CALLBACK, || self.0.start(io));
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply) {
        note_reply(reply);
        span(CALLBACK, || self.0.on_reply(io, tag, reply));
    }

    fn on_wake(&mut self, io: &mut ClientIo<'_, '_>) {
        span(CALLBACK, || self.0.on_wake(io));
    }

    fn finished(&self) -> bool {
        self.0.finished()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }
}

/// Host time of the traced spans, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSplit {
    /// Seconds inside `run_until` steps of the measured run, minus the
    /// workload callbacks nested in them.
    pub step_self_s: f64,
    /// Seconds inside workload callbacks during the measured run.
    pub callback_s: f64,
    /// Nearest-rank p99 of one step's host time, milliseconds.
    pub step_p99_ms: f64,
}

/// Splits the measured run's host time (every `run` span) across the
/// engine steps and the workload callbacks nested in them.
pub fn host_split(spans: &[Span]) -> HostSplit {
    let in_run = |s: &Span| s.parent != ROOT && spans[s.parent as usize].name == RUN;
    let mut steps: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == STEP && in_run(s) {
            steps.insert(i as u32, (s.ns(), 0));
        }
    }
    for s in spans {
        if s.name == CALLBACK {
            if let Some(step) = steps.get_mut(&s.parent) {
                step.1 += s.ns();
            }
        }
    }
    let mut step_ns: Vec<u64> = steps.values().map(|&(total, _)| total).collect();
    step_ns.sort_unstable();
    let self_ns: u64 = steps.values().map(|&(t, c)| t.saturating_sub(c)).sum();
    let cb_ns: u64 = steps.values().map(|&(_, c)| c).sum();
    HostSplit {
        step_self_s: self_ns as f64 / 1e9,
        callback_s: cb_ns as f64 / 1e9,
        step_p99_ms: nearest_rank(&step_ns, 0.99) as f64 / 1e6,
    }
}

/// Nearest-rank quantile of sorted values (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Writes spans as tab-separated `id parent name start_ns end_ns` rows.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

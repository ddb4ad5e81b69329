//! The traced mode's span recorder. Spans live in memory and are written
//! out once, when the run ends; per-layer durations are also kept as
//! samples so the run can report medians without re-reading the file.

use crate::report::Samples;
use std::io::Write as _;
use std::time::Instant;

/// Span names. Operation spans enclose the live call and the layer calls
/// the benchmark replays on that operation's inputs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Name {
    OpFlow,
    OpGrant,
    OpRevoke,
    OpBinding,
    /// The operation as the untraced run times it.
    Live,
    PacketParse,
    OpenflowDecode,
    ErmResolve,
    SnapshotClassify,
    CacheLookupInsert,
    OpenflowEncode,
    DataplaneInstall,
    PmInsert,
    PmRevoke,
    SnapshotCompile,
    DataplaneCookieDelete,
}

const NAMES: [&str; 16] = [
    "op.flow",
    "op.grant",
    "op.revoke",
    "op.binding",
    "live",
    "packet.parse",
    "openflow.decode",
    "erm.resolve",
    "snapshot.classify",
    "cache.lookup_insert",
    "openflow.encode",
    "dataplane.install",
    "pm.insert",
    "pm.revoke",
    "snapshot.compile",
    "dataplane.cookie_delete",
];

struct Span {
    id: u32,
    parent: u32,
    op: u32,
    name: Name,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per-name durations in nanoseconds.
    durations: Vec<Samples>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            durations: (0..NAMES.len()).map(|_| Samples::default()).collect(),
        }
    }

    fn push(&mut self, name: Name, op: u32, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Records a finished span and returns its id (span ids start at 1;
    /// parent 0 is the root).
    pub fn span(&mut self, name: Name, op: u32, parent: u32, start: Instant, end: Instant) -> u32 {
        self.durations[name as usize].push(end.duration_since(start).as_nanos() as f64);
        self.push(name, op, parent, start, end)
    }

    /// Runs `f` as a child span of `parent`, returning its result and
    /// duration in nanoseconds.
    pub fn time<R>(&mut self, name: Name, op: u32, parent: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.span(name, op, parent, start, end);
        (r, end.duration_since(start).as_nanos() as f64)
    }

    /// Reserves the id of an enclosing span whose end is not known yet;
    /// [`Tracer::close`] fills it in.
    pub fn open(&mut self, name: Name, op: u32, start: Instant) -> u32 {
        self.push(name, op, 0, start, start)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        let d = (span.end_ns - span.start_ns) as f64;
        self.durations[span.name as usize].push(d);
    }

    pub fn durations(&self, name: Name) -> &Samples {
        &self.durations[name as usize]
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as tab-separated lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, NAMES[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

//! Spans recorded by the benchmark's own code around its calls into each
//! layer. The measured loops are generic over [`Trace`]: with [`NoTrace`] the
//! calls compile away, so the untraced run pays nothing for them.
//!
//! Nothing inside the crates is instrumented, so a span's layer is the layer
//! whose public function the benchmark called: an `nbds` span includes the
//! `medley` loads and CASes that function makes, a `txmontage` span includes
//! the `nbds` index and the `pmem` payload calls under it.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Medley,
    Nbds,
    TxmontagePmem,
    Codec,
    Exec,
    /// Client-side spans of the wire workloads; they overlap the server's
    /// work and take no part in the per-op shares.
    Client,
}

macro_rules! names {
    ($($variant:ident => $label:literal, $layer:ident;)*) => {
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Name { $($variant,)* }

        impl Name {
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];
            pub fn label(self) -> &'static str {
                match self { $(Name::$variant => $label,)* }
            }
            pub fn layer(self) -> Layer {
                match self { $(Name::$variant => Layer::$layer,)* }
            }
        }
    };
}

names! {
    // One `ThreadHandle::run`: begin, the body's spans, validation and commit
    // (and post-commit cleanups). Its self time is the runtime's share.
    Txn => "medley.run", Medley;
    HashGet => "nbds.hash.get", Nbds;
    SkipGet => "nbds.skip.get", Nbds;
    HashPut => "nbds.hash.put", Nbds;
    SkipPut => "nbds.skip.put", Nbds;
    DurableHashGet => "txmontage.hash.get", TxmontagePmem;
    DurableSkipGet => "txmontage.skip.get", TxmontagePmem;
    DurableHashPut => "txmontage.hash.put", TxmontagePmem;
    DurableSkipPut => "txmontage.skip.put", TxmontagePmem;
    Sync => "pmem.sync", TxmontagePmem;
    // Wire workloads, client thread. `Request` spans overlap (a window of
    // them is in flight); the other two nest on the client thread.
    Request => "client.request", Client;
    ClientSend => "client.send", Client;
    ClientRecv => "client.recv", Client;
    // Wire workloads, socket-free replay of the same request stream.
    Decode => "proto.take_frame+decode_request", Codec;
    Exec => "store.exec", Exec;
    Encode => "proto.encode_response", Codec;
}

const N_NAMES: usize = Name::ALL.len();
/// Spans kept per thread for the trace file; self times cover every span.
const KEEP_SPANS: usize = 40_000;
const NO_PARENT: u32 = u32::MAX;

pub trait Trace {
    const ON: bool;
    /// Starts the next operation: spans until the next call share its id.
    fn next_op(&mut self);
    fn enter(&mut self, name: Name);
    fn exit(&mut self);
    /// `f` inside a span called `name`.
    #[inline(always)]
    fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }
    /// A span that does not nest on this thread (a pipelined request).
    fn flat(&mut self, name: Name, op: u32, start_ns: u64, end_ns: u64);
    fn now_ns(&self) -> u64;
    fn op_id(&self) -> u32;
}

pub struct NoTrace;

impl Trace for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn next_op(&mut self) {}
    #[inline(always)]
    fn enter(&mut self, _: Name) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn flat(&mut self, _: Name, _: u32, _: u64, _: u64) {}
    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn op_id(&self) -> u32 {
        0
    }
}

struct Span {
    id: u32,
    parent: u32,
    op: u32,
    name: Name,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u32,
    name: Name,
    start_ns: u64,
    children_ns: u64,
    children: u32,
}

pub struct Recorder {
    t0: Instant,
    clock_ns: u64,
    thread: u32,
    op: u32,
    next_id: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    self_ns: [u64; N_NAMES],
    calls: [u64; N_NAMES],
}

/// Cost of one clock read: the median gap between back-to-back reads.
pub fn clock_read_ns() -> u64 {
    let t0 = Instant::now();
    let mut gaps: Vec<u64> = (0..4096)
        .map(|_| {
            let a = t0.elapsed();
            let b = t0.elapsed();
            (b - a).as_nanos() as u64
        })
        .collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

impl Recorder {
    pub fn new(t0: Instant, clock_ns: u64, thread: u32) -> Self {
        Self {
            t0,
            clock_ns,
            thread,
            op: 0,
            next_id: 0,
            stack: Vec::with_capacity(8),
            kept: Vec::with_capacity(KEEP_SPANS),
            dropped: 0,
            self_ns: [0; N_NAMES],
            calls: [0; N_NAMES],
        }
    }

    fn close(&mut self, span: Span, children_ns: u64, children: u32) {
        // A measured span is longer than the work inside it by about one
        // clock read, and each child leaves about one more in its parent's
        // remainder; take both out of the self time (the raw start and end
        // are what the file keeps).
        let dur = span.end_ns - span.start_ns;
        let overhead = self.clock_ns * (1 + children as u64);
        let i = span.name as usize;
        self.self_ns[i] += dur.saturating_sub(children_ns).saturating_sub(overhead);
        self.calls[i] += 1;
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

impl Trace for Recorder {
    const ON: bool = true;

    #[inline]
    fn next_op(&mut self) {
        self.op += 1;
    }

    #[inline]
    fn enter(&mut self, name: Name) {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            children_ns: 0,
            children: 0,
        });
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += end_ns - open.start_ns;
                p.children += 1;
                p.id
            }
            None => NO_PARENT,
        };
        let span = Span {
            id: open.id,
            parent,
            op: self.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        self.close(span, open.children_ns, open.children);
    }

    #[inline]
    fn flat(&mut self, name: Name, op: u32, start_ns: u64, end_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent: NO_PARENT,
            op,
            name,
            start_ns,
            end_ns,
        };
        self.close(span, 0, 0);
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    fn op_id(&self) -> u32 {
        self.op
    }
}

/// The recorders of one traced run, merged.
#[derive(Default)]
pub struct TraceSummary {
    self_ns: [u64; N_NAMES],
    calls: [u64; N_NAMES],
    threads: Vec<Recorder>,
}

impl TraceSummary {
    pub fn add(&mut self, rec: Recorder) {
        for i in 0..N_NAMES {
            self.self_ns[i] += rec.self_ns[i];
            self.calls[i] += rec.calls[i];
        }
        self.threads.push(rec);
    }

    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|n| self.self_ns[*n as usize])
            .sum()
    }

    pub fn calls(&self, name: Name) -> u64 {
        self.calls[name as usize]
    }

    /// Writes the trace file; its first key is the machine fingerprint.
    pub fn write_file(
        &self,
        path: &std::path::Path,
        fingerprint: &str,
        workload: &str,
        seed: u64,
        extra: Vec<(String, Json)>,
    ) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let clock_ns = self.threads.first().map_or(0, |r| r.clock_ns);
        let per_name = |vals: &[u64; N_NAMES]| {
            Json::Obj(
                Name::ALL
                    .iter()
                    .filter(|n| self.calls[**n as usize] > 0)
                    .map(|n| (n.label().to_string(), Json::Num(vals[*n as usize] as f64)))
                    .collect(),
            )
        };
        let mut head = vec![
            ("fingerprint".to_string(), Json::Str(fingerprint.into())),
            ("workload".to_string(), Json::Str(workload.into())),
            ("seed".to_string(), Json::Num(seed as f64)),
            ("clock_read_ns".to_string(), Json::Num(clock_ns as f64)),
            (
                "self_time_rule".to_string(),
                Json::Str(
                    "span minus child spans minus clock_read_ns x (1 + children), floored at 0"
                        .into(),
                ),
            ),
            ("self_time_ns".to_string(), per_name(&self.self_ns)),
            ("calls".to_string(), per_name(&self.calls)),
            (
                "spans_kept".to_string(),
                Json::Num(self.threads.iter().map(|r| r.kept.len()).sum::<usize>() as f64),
            ),
            (
                "spans_dropped".to_string(),
                Json::Num(self.threads.iter().map(|r| r.dropped).sum::<u64>() as f64),
            ),
        ];
        head.extend(extra);
        head.push((
            "span_names".to_string(),
            Json::Arr(
                Name::ALL
                    .iter()
                    .map(|n| Json::Str(n.label().into()))
                    .collect(),
            ),
        ));
        head.push((
            "span_columns".to_string(),
            Json::Str("thread, id, parent (-1: none), op, name index, start_ns, end_ns".into()),
        ));
        let mut text = Json::Obj(head).to_line();
        text.pop(); // reopen the object for the span rows
        text.push_str(", \"spans\": [\n");
        let mut first = true;
        for rec in &self.threads {
            for s in &rec.kept {
                if !first {
                    text.push_str(",\n");
                }
                first = false;
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                let _ = write!(
                    text,
                    "[{}, {}, {}, {}, {}, {}, {}]",
                    rec.thread, s.id, parent, s.op, s.name as u8, s.start_ns, s.end_ns
                );
            }
        }
        text.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let start = Instant::now();
        let mut r = Recorder::new(start, 0, 0);
        r.next_op();
        r.enter(Name::Txn);
        r.enter(Name::HashGet);
        std::thread::sleep(std::time::Duration::from_millis(3));
        r.exit();
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        // A sleep may overrun by any amount on a shared host; the spans cannot
        // add up to more than the time that passed.
        let total = start.elapsed().as_nanos() as u64;
        let mut sum = TraceSummary::default();
        sum.add(r);
        let nbds = sum.layer_self_ns(Layer::Nbds);
        let medley = sum.layer_self_ns(Layer::Medley);
        assert!(nbds >= 3_000_000, "child keeps its own time: {nbds}");
        assert!(
            medley >= 2_000_000 && medley + nbds <= total,
            "parent keeps only the remainder: {medley} + {nbds} of {total}"
        );
        assert_eq!(sum.calls(Name::Txn), 1);
        assert_eq!(sum.layer_self_ns(Layer::TxmontagePmem), 0);
    }

    #[test]
    fn trace_file_is_json_and_starts_with_the_fingerprint() {
        let mut r = Recorder::new(Instant::now(), 0, 1);
        r.next_op();
        r.enter(Name::Txn);
        r.enter(Name::SkipPut);
        r.exit();
        r.exit();
        r.flat(Name::Request, 7, 10, 20);
        let mut sum = TraceSummary::default();
        sum.add(r);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.json");
        sum.write_file(&path, "cores=2", "lib-txn", 5, Vec::new())
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with("{\"fingerprint\": \"cores=2\""));
        let v = crate::json::parse(&text).unwrap();
        let spans = v.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        // The child closes first and names the open parent's id.
        let row = |i: usize| -> Vec<f64> {
            spans[i]
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect()
        };
        assert_eq!(row(0)[2], row(1)[1]);
        assert_eq!(row(1)[2], -1.0);
        assert_eq!(row(2)[3], 7.0);
    }
}

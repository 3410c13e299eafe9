//! Host-side probes: wall-clock spans around calls into the simulator's
//! layers, plus the process counters the kernel exposes under `/proc`.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when recording, keeps a span per call in memory. The
/// spans are written out once, when the run ends ([`Tracer::to_json`]).
pub struct Tracer {
    recording: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(Option<usize>, Instant)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            recording: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span recording on or off; timing is always on.
    pub fn record(&mut self, on: bool) {
        self.recording = on;
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        let id = if self.recording {
            let parent = self.open.iter().rev().find_map(|&(id, _)| id);
            self.spans.push(Span {
                name,
                parent,
                start_ns: self.ns(now),
                end_ns: 0,
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        self.open.push((id, now));
    }

    /// Closes the innermost open span and returns its length in seconds.
    pub fn exit(&mut self) -> f64 {
        let now = Instant::now();
        let (id, start) = self.open.pop().expect("exit without a matching enter");
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(now);
        }
        (now - start).as_secs_f64()
    }

    /// Times `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.t0).as_nanos() as u64
    }

    /// Self time per span name, in seconds: each span's length minus the
    /// part its direct children cover, summed by name, sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => by_name.push((s.name, own)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(b.0));
        by_name
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// User and kernel CPU time of the whole process so far, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`). `None` where `/proc` is absent.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; count fields after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some((user, sys))
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

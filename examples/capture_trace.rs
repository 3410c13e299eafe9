//! Regenerates the committed example traces under `traces/`.
//!
//! `traces/persistent_kv.trace` is *captured*: a small persistent
//! key-value-store workload (log-then-install updates on one core,
//! concurrent readers/CAS traffic on the other) runs in thread mode on the
//! paper platform with capture on, and the committed memory-op stream is
//! written out in the versioned binary format. Thread mode is
//! deterministic, so re-running this example reproduces the committed
//! bytes exactly.
//!
//! `traces/litmus_sb.txt` is hand-written; this example only checks that
//! it still parses and that its binary round trip is the identity.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --example capture_trace
//! ```

use skipit::prelude::*;
use std::path::Path;

/// Key-value slots: key `k` lives at `KV_BASE + k * 64` (one line per key).
const KV_BASE: u64 = 0x8_0000;
/// The redo-log region the writer appends to before installing.
const LOG_BASE: u64 = 0x9_0000;

fn kv_workload(sys: &mut skipit::System) -> Vec<u64> {
    let report = sys.run(Threads::new(vec![
        |h: CoreHandle| async move {
            if h.core_id() == 0 {
                writer(&h).await
            } else {
                reader(&h).await
            }
        };
        2
    ]));
    report.output
}

/// Log-then-install. Each update appends (key, value) to the log, persists
/// the log entry, installs the value in place, and persists the install —
/// the classic redo-log persistence pattern the paper's §4 semantics are
/// built for.
async fn writer(h: &CoreHandle) -> u64 {
    let mut installed = 0;
    for i in 0..12u64 {
        let key = i % 4;
        let value = 100 + i;
        let entry = LOG_BASE + i * 64;
        h.store(entry, (key << 32) | value).await;
        h.flush(entry).await;
        h.fence().await;
        h.store(KV_BASE + key * 64, value).await;
        h.flush(KV_BASE + key * 64).await;
        h.fence().await;
        installed += 1;
    }
    installed
}

/// Scans the live slots and bumps a shared version counter, contending
/// with the writer for line ownership.
async fn reader(h: &CoreHandle) -> u64 {
    let mut sum = 0u64;
    for round in 0..6u64 {
        for key in 0..4u64 {
            sum = sum.wrapping_add(h.load(KV_BASE + key * 64).await);
        }
        h.fetch_add(KV_BASE + 4 * 64, 1).await;
        h.work(10 + round).await;
    }
    h.fence().await;
    sum
}

fn main() {
    let traces = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&traces).expect("create traces/");

    // ---- persistent_kv.trace: captured from a live thread-mode run ----
    let mut sys = skipit::paper_platform(true);
    sys.start_capture();
    let results = kv_workload(&mut sys);
    assert_eq!(results[0], 12, "writer must install all updates");
    let trace = MemTrace::from_capture(2, 0, &sys.take_capture());
    assert!(!trace.is_empty());

    let path = traces.join("persistent_kv.trace");
    trace.to_file(&path).expect("write persistent_kv.trace");
    // Paranoia: the file decodes back to the identical trace.
    assert_eq!(MemTrace::from_file(&path).unwrap(), trace);
    println!(
        "wrote {} ({} records, {} cores)",
        path.display(),
        trace.len(),
        trace.cores()
    );

    // ---- litmus_sb.txt: hand-written, just validate it ----
    let path = traces.join("litmus_sb.txt");
    let text = std::fs::read_to_string(&path).expect("read litmus_sb.txt");
    let litmus = MemTrace::from_text(&text).expect("litmus trace parses");
    assert_eq!(
        MemTrace::from_bytes(&litmus.to_bytes()).unwrap(),
        litmus,
        "litmus binary round trip"
    );
    println!(
        "validated {} ({} records, {} cores)",
        path.display(),
        litmus.len(),
        litmus.cores()
    );
}

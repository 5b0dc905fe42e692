//! Property and stress tests of the flight-recorder ring invariants.
//!
//! The contracts under test are the two that make a bounded flight
//! recorder trustworthy: wrap-around never tears a span (a drained
//! snapshot holds only whole begin/end pairs, checked both on the
//! records and through the Chrome exporter + validator), and the drop
//! counter *exactly* equals the events lost — recorded minus drained is
//! accounted loss, not silent loss. A hammer test races eight writer
//! threads against a concurrent drainer to check the same accounting
//! under contention and across multiple drains.

use proptest::prelude::*;
use relcnn_obs::trace::{export_chrome, validate, Arg, TraceRecord, TraceRecorder};

/// One scripted ring operation: `true` records a span (2 events),
/// `false` an instant (1 event).
fn apply(ring: &relcnn_obs::TraceRing, op: bool, i: usize, ts: &mut u64) -> u64 {
    if op {
        let begin = *ts;
        *ts += 2;
        ring.span("work", "prop", begin, *ts, &[Arg::U("i", i as u64)]);
        2
    } else {
        *ts += 1;
        ring.instant("mark", "prop", *ts, &[Arg::U("i", i as u64)]);
        1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wrap_never_tears_a_span_and_drops_are_exact(
        ops in collection::vec(any::<bool>(), 0..300),
        capacity in 1usize..48,
    ) {
        let tr = TraceRecorder::with_capacity("prop", capacity);
        let ring = tr.ring("r");
        let mut ts = 0u64;
        let mut pushed_events = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            pushed_events += apply(&ring, op, i, &mut ts);
        }
        let snap = tr.drain();
        // Ring registration is eager: the track exists even before any
        // record lands in it.
        prop_assert_eq!(snap.threads.len(), 1);
        let (recorded, dropped, drained_events, records) = match snap.threads.first() {
            Some(t) => (
                t.recorded_events,
                t.dropped_events,
                t.records.iter().map(TraceRecord::events).sum::<u64>(),
                t.records.clone(),
            ),
            None => (0, 0, 0, Vec::new()),
        };

        // The drop counter exactly equals events lost to eviction.
        prop_assert_eq!(recorded, pushed_events);
        prop_assert_eq!(dropped, pushed_events - drained_events);
        prop_assert!(records.len() <= capacity);

        // The retained window is exactly the newest suffix: contiguous,
        // strictly increasing seq, ending at the last pushed record.
        let seqs: Vec<u64> = records.iter().map(TraceRecord::seq).collect();
        for w in seqs.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
        if let Some(&last) = seqs.last() {
            prop_assert_eq!(last, ops.len() as u64 - 1);
        }

        // Every span survives whole: the exported document balances its
        // B/E pairs, which the validator rejects otherwise.
        let json = export_chrome(&[snap]);
        let parsed = validate(&json)
            .map_err(|e| TestCaseError::fail(format!("torn export: {e}")))?;
        prop_assert_eq!(parsed.count('B', "work"), parsed.count('E', "work"));
    }
}

#[test]
fn hammer_eight_writers_racing_a_drainer() {
    const WRITERS: usize = 8;
    const OPS_PER_WRITER: u64 = 4_000;
    let tr = TraceRecorder::with_capacity("hammer", 64);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // A drainer races the writers, repeatedly stealing whole windows.
    let drainer = {
        let tr = tr.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut drains = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                drains.push(tr.drain());
                std::thread::yield_now();
            }
            drains
        })
    };

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ring = tr.ring(&format!("writer-{w}"));
            scope.spawn(move || {
                let mut ts = 0u64;
                for i in 0..OPS_PER_WRITER {
                    if i % 3 == 0 {
                        ts += 1;
                        ring.instant("mark", "hammer", ts, &[Arg::U("i", i)]);
                    } else {
                        let begin = ts;
                        ts += 2;
                        ring.span("work", "hammer", begin, ts, &[Arg::U("i", i)]);
                    }
                }
            });
        }
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    let mut drains = drainer.join().expect("drainer");
    drains.push(tr.drain());

    // Per ring: seqs strictly increase across the concatenated drains
    // (no record is lost to a drain race, none duplicated), and the
    // final cumulative counters balance: recorded == drained + dropped.
    for w in 0..WRITERS {
        let label = format!("writer-{w}");
        let mut drained_events = 0u64;
        let mut last_seq: Option<u64> = None;
        let mut totals = (0u64, 0u64);
        for snap in &drains {
            for t in snap.threads.iter().filter(|t| t.label == label) {
                for rec in &t.records {
                    assert!(
                        last_seq.is_none_or(|p| rec.seq() > p),
                        "{label}: seq {} not increasing past {last_seq:?}",
                        rec.seq()
                    );
                    last_seq = Some(rec.seq());
                    drained_events += rec.events();
                }
                totals = (t.recorded_events, t.dropped_events);
            }
        }
        let (recorded, dropped) = totals;
        let expected: u64 = (0..OPS_PER_WRITER)
            .map(|i| if i % 3 == 0 { 1 } else { 2 })
            .sum();
        assert_eq!(recorded, expected, "{label}: recorded events");
        assert_eq!(
            recorded,
            drained_events + dropped,
            "{label}: accounting must balance exactly"
        );
    }

    // Every drained window still exports a validator-clean timeline.
    let json = export_chrome(&drains);
    validate(&json).expect("hammered export must validate");
}

/// The raw JSON value tree, read and written as is.
struct Doc(serde::Value);

impl serde::Deserialize for Doc {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Doc(value.clone()))
    }
}

impl serde::Serialize for Doc {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// A megabyte export full of multi-byte scalars and escapes parses to
/// exactly the recorded events, and writing the parsed tree back out
/// reproduces the document byte for byte (less the exporter's line
/// breaks, which sit between events only).
#[test]
fn megabyte_export_parses_byte_for_byte() {
    let names = [
        "stage-é",
        "conv€ \"q\"",
        "tail😀\\path",
        "tab\there\nnl\u{1}",
    ];
    let tr = TraceRecorder::with_capacity("proc-é€😀", 1 << 16);
    let ring = tr.ring("lane \"0\" ✓");
    for i in 0..6_000u64 {
        let name = names[i as usize % names.len()];
        ring.span(
            name,
            "cat-€",
            3 * i,
            3 * i + 2,
            &[Arg::S("note", name), Arg::U("i", i)],
        );
    }
    let snap = tr.drain();
    let json = export_chrome(std::slice::from_ref(&snap));
    assert!(json.len() >= 1 << 20, "document is {} bytes", json.len());

    let parsed = validate(&json).expect("export validates");
    let records = &snap.threads[0].records;
    let spans: Vec<_> = parsed.events.iter().filter(|e| e.ph != 'M').collect();
    assert_eq!(spans.len(), 2 * records.len());
    for (pair, rec) in spans.chunks(2).zip(records) {
        assert_eq!(pair[0].name, rec.name());
        assert_eq!(pair[1].name, rec.name());
        assert_eq!(pair[0].cat, "cat-€");
    }

    let tree: Doc = serde_json::from_str(&json).expect("parses");
    let rewritten = serde_json::to_string(&tree).expect("writes");
    assert_eq!(rewritten, json.replace('\n', ""));
}

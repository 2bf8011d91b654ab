//! A reader that follows [`SpanRecorder::read_since`] with a cursor — the
//! way the `watch` op's span frames do — must see every published span
//! exactly once while several sinks publish concurrently.
//!
//! Each publisher numbers its spans inside its own ring's lock, and the
//! reader locks the rings one at a time, so a block numbered earlier can
//! land in a ring the reader has already passed while a later block shows in
//! the next ring. A read that returned the later block would move the
//! cursor past the earlier one for good.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use spi_store::span::{PhaseId, SpanRecorder};

const SINKS: usize = 3;
const DRAINS: usize = 20_000;
/// A drain root and its ten children, published together when the root
/// closes.
const SPANS_PER_DRAIN: usize = 11;

#[test]
fn a_cursor_reader_sees_every_span_exactly_once() {
    // Large enough that nothing drops: every span must reach the reader.
    let recorder = Arc::new(SpanRecorder::new(1 << 22));
    let start = Barrier::new(SINKS + 1);
    let published = AtomicBool::new(false);
    let seen = std::thread::scope(|scope| {
        let publishers: Vec<_> = (0..SINKS)
            .map(|worker| {
                let (recorder, start) = (&recorder, &start);
                scope.spawn(move || {
                    let sink = recorder.sink(&format!("worker-{worker}"));
                    start.wait();
                    for _ in 0..DRAINS {
                        sink.enter(PhaseId::DrainShard);
                        for _ in 1..SPANS_PER_DRAIN {
                            sink.enter(PhaseId::CompileLower);
                            sink.exit();
                        }
                        sink.exit();
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            start.wait();
            let mut cursor = 0u64;
            let mut seen = 0u64;
            loop {
                // Read the flag first: a read that starts after every
                // publisher finished is the last one needed.
                let finished = published.load(Ordering::SeqCst);
                for span in recorder.read_since(cursor).spans {
                    assert!(span.seq >= cursor, "a read went back before its cursor");
                    cursor = span.seq + 1;
                    seen += 1;
                }
                if finished {
                    return seen;
                }
            }
        });
        for publisher in publishers {
            publisher.join().expect("publisher runs to completion");
        }
        published.store(true, Ordering::SeqCst);
        reader.join().expect("reader runs to completion")
    });
    let total = (SINKS * DRAINS * SPANS_PER_DRAIN) as u64;
    assert_eq!(recorder.next_seq(), total);
    assert_eq!(recorder.dropped(), 0);
    assert_eq!(seen, total, "the reader missed {} spans", total - seen);
}

//! The registry's hook into durable storage.
//!
//! [`JobRegistry`](crate::JobRegistry) stays a pure state machine: it never
//! opens files itself. Instead it renders its own transition records
//! (submit / shard-commit / cancel) as JSON lines and hands them to a
//! [`DurabilitySink`] **before** applying the transition in memory — the
//! write-ahead discipline that makes crash recovery exact: a transition the
//! sink never acknowledged never happened, and a transition the sink
//! acknowledged is replayed even if the process died a cycle later.
//!
//! The production sink is [`WalSink`], a thin adapter over
//! [`spi_store::Wal`]; tests substitute in-memory sinks to script failures
//! and inspect the record stream.

use spi_model::json::JsonValue;
use spi_store::{SnapshotText, Wal};

/// Where the registry writes its transition records and snapshots.
///
/// Errors are plain strings (they surface as
/// [`ExploreError::Store`](crate::ExploreError)): the registry treats any
/// sink failure as "the transition did not happen" and reports it to the
/// caller, who may retry or abandon.
pub trait DurabilitySink: Send {
    /// Durably appends one transition record, given as its JSON line. Must
    /// not return `Ok` unless the record will survive a process crash.
    ///
    /// # Errors
    ///
    /// A human-readable description of the failure.
    fn append(&mut self, record: &str) -> Result<(), String>;

    /// Replaces the record history with a compacted snapshot, given as its
    /// text, and forces everything to stable storage. Returns the bytes of
    /// record history the compaction reclaimed (0 for sinks without a
    /// meaningful size), which the registry records in its decision trace.
    ///
    /// # Errors
    ///
    /// A human-readable description of the failure.
    fn compact(&mut self, snapshot: &SnapshotText) -> Result<u64, String>;

    /// Bytes of record history accumulated since the last compaction. The
    /// registry compares this against its `compact_log_bytes` budget to
    /// decide when to compact mid-flight; sinks without a meaningful size
    /// (in-memory tests) report 0 and are never auto-compacted.
    fn log_bytes(&self) -> u64 {
        0
    }
}

/// [`DurabilitySink`] over a [`spi_store::Wal`].
pub struct WalSink(pub Wal);

impl DurabilitySink for WalSink {
    fn append(&mut self, record: &str) -> Result<(), String> {
        self.0
            .append(record)
            .map(|_seq| ())
            .map_err(|e| e.to_string())
    }

    fn compact(&mut self, snapshot: &SnapshotText) -> Result<u64, String> {
        self.0.compact(snapshot).map_err(|e| e.to_string())
    }

    fn log_bytes(&self) -> u64 {
        self.0.log_bytes()
    }
}

/// The durable state an in-memory sink accumulates: a snapshot's text plus
/// the record tail appended since, parsed as [`spi_store::Wal::open`]
/// parses it — exactly what [`JobRegistry::restore`] consumes. Shared
/// behind `Arc<Mutex<…>>` so it survives the registry (and sink) it was
/// attached to, the way a WAL directory survives a process: a simulated
/// crash drops the registry and restores a fresh one from the store's
/// contents.
///
/// [`JobRegistry::restore`]: crate::JobRegistry::restore
#[derive(Debug, Default, Clone)]
pub struct MemoryStore {
    /// The latest compacted snapshot, if any compaction ran.
    pub snapshot: Option<SnapshotText>,
    /// Transition records appended since the latest compaction.
    pub records: Vec<JsonValue>,
    /// Serialized bytes of `records` — what [`DurabilitySink::log_bytes`]
    /// reports, so size-triggered compaction is testable in memory.
    pub log_bytes: u64,
}

/// In-memory [`DurabilitySink`] over a shared [`MemoryStore`]; optionally
/// fails every operation (`fail: true`), modeling a sink outage.
///
/// Production uses [`WalSink`]; tests and the `spi-chaos` simulation use
/// this to script failures and inspect (or corrupt) the record stream.
pub struct MemorySink {
    /// The store appends land in; shared so inspection outlives the sink.
    pub store: std::sync::Arc<std::sync::Mutex<MemoryStore>>,
    /// When `true`, every append and compact returns an error without
    /// touching the store.
    pub fail: bool,
}

impl MemorySink {
    /// A working sink over `store`.
    pub fn new(store: std::sync::Arc<std::sync::Mutex<MemoryStore>>) -> Self {
        MemorySink { store, fail: false }
    }

    /// A sink that fails every operation, leaving `store` untouched.
    pub fn failing(store: std::sync::Arc<std::sync::Mutex<MemoryStore>>) -> Self {
        MemorySink { store, fail: true }
    }
}

impl DurabilitySink for MemorySink {
    fn append(&mut self, record: &str) -> Result<(), String> {
        if self.fail {
            return Err("sink scripted to fail".to_string());
        }
        let parsed = JsonValue::parse(record).map_err(|e| e.to_string())?;
        let mut store = self.store.lock().expect("store lock");
        store.log_bytes += record.len() as u64 + 1;
        store.records.push(parsed);
        Ok(())
    }

    fn compact(&mut self, snapshot: &SnapshotText) -> Result<u64, String> {
        if self.fail {
            return Err("sink scripted to fail".to_string());
        }
        let mut store = self.store.lock().expect("store lock");
        let reclaimed = store.log_bytes;
        store.snapshot = Some(snapshot.clone());
        store.records.clear();
        store.log_bytes = 0;
        Ok(reclaimed)
    }

    fn log_bytes(&self) -> u64 {
        self.store.lock().expect("store lock").log_bytes
    }
}

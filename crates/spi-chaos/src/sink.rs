//! The fault-wrapping [`DurabilitySink`] decorator.
//!
//! [`FaultSink`] wraps the in-memory [`MemorySink`] from
//! `spi_explore::durability` and consumes scripted faults armed by the fault
//! plan: append failures (record lost), **torn appends** (record lands but
//! the ack is lost — the registry retries and recovery must deduplicate),
//! and compaction failures. The wrapped [`MemoryStore`] plays the role of
//! the disk: it survives a simulated `kill -9` (the registry is dropped, the
//! store is not) and can have its record tail chopped to model writes that
//! never hit the platter.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use spi_explore::{DurabilitySink, MemorySink, MemoryStore};
use spi_store::SnapshotText;

/// What happens to the next sink append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendFault {
    /// Return an error; the record is lost (a clean write failure).
    Fail,
    /// Return an error but persist the record anyway (ack lost, write
    /// landed). The registry's retry then persists a duplicate the
    /// recovery path must deduplicate.
    Torn,
}

/// The armed-but-not-yet-consumed sink faults, shared between the plan
/// executor (which arms) and the [`FaultSink`] (which consumes). Faults are
/// consumed in FIFO order, one per matching operation.
#[derive(Debug, Default)]
pub struct FaultScript {
    /// Pending append faults.
    pub appends: VecDeque<AppendFault>,
    /// Pending compaction failures.
    pub compacts: u32,
}

/// [`DurabilitySink`] decorator injecting scripted faults over a
/// [`MemorySink`].
pub struct FaultSink {
    inner: MemorySink,
    script: Arc<Mutex<FaultScript>>,
}

impl FaultSink {
    /// A fault-injecting sink persisting into `store` and consuming faults
    /// from `script`.
    pub fn new(store: Arc<Mutex<MemoryStore>>, script: Arc<Mutex<FaultScript>>) -> Self {
        FaultSink {
            inner: MemorySink::new(store),
            script,
        }
    }
}

impl DurabilitySink for FaultSink {
    fn append(&mut self, record: &str) -> Result<(), String> {
        let fault = self
            .script
            .lock()
            .expect("fault script lock")
            .appends
            .pop_front();
        match fault {
            None => self.inner.append(record),
            Some(AppendFault::Fail) => Err("injected: append failed, record lost".to_string()),
            Some(AppendFault::Torn) => {
                self.inner
                    .append(record)
                    .expect("memory sink append cannot fail");
                Err("injected: append torn — record persisted, ack lost".to_string())
            }
        }
    }

    fn compact(&mut self, snapshot: &SnapshotText) -> Result<u64, String> {
        {
            let mut script = self.script.lock().expect("fault script lock");
            if script.compacts > 0 {
                script.compacts -= 1;
                return Err("injected: compaction failed".to_string());
            }
        }
        self.inner.compact(snapshot)
    }

    fn log_bytes(&self) -> u64 {
        self.inner.log_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_appends_persist_despite_the_error() {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let script = Arc::new(Mutex::new(FaultScript::default()));
        let mut sink = FaultSink::new(Arc::clone(&store), Arc::clone(&script));
        let record = "\"r\"";

        script.lock().unwrap().appends.push_back(AppendFault::Fail);
        script.lock().unwrap().appends.push_back(AppendFault::Torn);

        assert!(sink.append(record).is_err());
        assert_eq!(
            store.lock().unwrap().records.len(),
            0,
            "failed append is lost"
        );
        assert!(sink.append(record).is_err());
        assert_eq!(store.lock().unwrap().records.len(), 1, "torn append lands");
        assert!(sink.append(record).is_ok());
        assert_eq!(store.lock().unwrap().records.len(), 2, "script exhausted");
    }

    #[test]
    fn compact_faults_consume_once() {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let script = Arc::new(Mutex::new(FaultScript::default()));
        let mut sink = FaultSink::new(Arc::clone(&store), Arc::clone(&script));
        script.lock().unwrap().compacts = 1;
        let snapshot = SnapshotText::new("\"s\"".to_string());
        assert!(sink.compact(&snapshot).is_err());
        assert!(sink.compact(&snapshot).is_ok());
        assert!(store.lock().unwrap().snapshot.is_some());
    }
}

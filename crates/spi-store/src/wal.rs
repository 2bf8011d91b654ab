//! The append-only, checksummed write-ahead log and its snapshot companion.
//!
//! # Files
//!
//! A store directory holds two files:
//!
//! * `wal.log` — one record per line: `{"seq":N,"crc":"<hex>","rec":{...}}`.
//!   `rec` is an opaque JSON line supplied by the caller (the registry
//!   renders its own transition records), written as it is; `crc` is the
//!   FNV-1a-128 digest of `rec`'s bytes as written, so a flipped bit
//!   anywhere in the payload — or a torn final line from a crash
//!   mid-append — fails verification.
//! * `snapshot.json` — one line `{"seq":N,"crc":"<hex>","state":{...}}`:
//!   a caller-supplied compaction of every record up to and including `seq`,
//!   handed over and recovered as its text ([`SnapshotText`]).
//!
//! Lines are checked as text: a payload whose bytes differ from the ones
//! written fails, even if it parses to the same value, as does any frame
//! but the one written. Only then is a record parsed, once; the snapshot is
//! not parsed here at all: its owner reads the verified text entry by entry
//! (see [`spi_model::json::members`]), so no tree of the whole state is
//! ever built.
//!
//! # Recovery
//!
//! [`Wal::open`] loads the snapshot (if any), then replays `wal.log` records
//! with `seq` greater than the snapshot's. Replay stops at the first
//! malformed, checksum-failing or out-of-order line and **truncates** the
//! file there: a crash can only tear the tail, so everything before the
//! first bad line is intact by construction, and everything after it was
//! never acknowledged. Appends after recovery continue the sequence.
//!
//! # Durability
//!
//! Every append writes through to the operating system before returning
//! (`BufWriter` is flushed per record), which survives process crashes —
//! the failure mode the exploration service actually recovers from.
//! [`Wal::sync`] additionally `fsync`s for machine-crash durability; the
//! service calls it at compaction points rather than per record.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use spi_model::digest::digest_bytes;
use spi_model::json::JsonValue;

use crate::error::{Result, StoreError};

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.json";
const LOCK_FILE: &str = "lock";

/// A snapshot's state as its text: one JSON value on one line, which
/// [`Wal::compact`] writes as it is and [`Wal::open`] hands back once its
/// checksum holds. Its reader checks it as JSON while reading it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotText(String);

impl SnapshotText {
    /// Wraps `text`, which must be one JSON value without a newline (the
    /// line [`JsonValue::to_line`] renders is one).
    pub fn new(text: String) -> SnapshotText {
        SnapshotText(text)
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Everything [`Wal::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The latest snapshot state, if a snapshot was ever written.
    pub snapshot: Option<SnapshotText>,
    /// Replayable records appended after the snapshot, in append order.
    pub records: Vec<JsonValue>,
    /// How many trailing bytes were discarded as a torn tail (0 on a clean
    /// shutdown). Exposed so operators can observe imperfect recoveries.
    pub truncated_bytes: u64,
}

impl Recovered {
    /// True when nothing was ever written (fresh directory).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }
}

/// An open write-ahead log; see the module docs for the format.
pub struct Wal {
    wal_path: PathBuf,
    snapshot_path: PathBuf,
    writer: BufWriter<File>,
    next_seq: u64,
    /// Size of `wal.log` in bytes (after torn-tail truncation); lets owners
    /// trigger compaction once the log outgrows a budget.
    log_bytes: u64,
    /// Held for the Wal's lifetime; the OS releases it when the process dies
    /// (including `kill -9`), so a crashed daemon never wedges its store.
    _lock: File,
}

/// Writes `payload` framed as the line `{"seq":N,"crc":"<hex>","<key>":
/// <payload>}` and its newline, the checksum taken over the payload's text,
/// and returns the bytes written. The payload is written as it is, never
/// copied into the line.
fn write_frame(out: &mut impl Write, seq: u64, key: &str, payload: &str) -> Result<u64> {
    if payload.contains('\n') {
        return Err(StoreError::Corrupt(format!(
            "a {key} payload must be one line"
        )));
    }
    let crc = digest_bytes(payload.as_bytes());
    let head = format!("{{\"seq\":{seq},\"crc\":\"{crc}\",\"{key}\":");
    out.write_all(head.as_bytes())?;
    out.write_all(payload.as_bytes())?;
    out.write_all(b"}\n")?;
    Ok((head.len() + payload.len() + 2) as u64)
}

/// Reads one framed line; `Ok` carries `(seq, payload)`, the payload's text
/// checked against the checksum: a payload whose bytes changed fails even
/// if it means the same.
fn unframe<'a>(line: &'a str, key: &str) -> std::result::Result<(u64, &'a str), String> {
    let rest = line.strip_prefix("{\"seq\":").ok_or("missing seq")?;
    let (seq_text, rest) = rest.split_once(",\"crc\":\"").ok_or("missing crc")?;
    let seq = seq_text.parse::<u64>().ok();
    let seq = seq
        .filter(|seq| seq.to_string() == seq_text)
        .ok_or("malformed seq")?;
    let (crc, rest) = rest.split_once('"').ok_or("missing crc")?;
    let payload = rest
        .strip_prefix(",\"")
        .and_then(|rest| rest.strip_prefix(key))
        .and_then(|rest| rest.strip_prefix("\":"))
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or("missing payload")?;
    if digest_bytes(payload.as_bytes()).to_string() != crc {
        return Err(format!("checksum mismatch at seq {seq}"));
    }
    Ok((seq, payload))
}

impl Wal {
    /// Opens (creating if needed) the store at `dir`, recovering its state.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`StoreError::Corrupt`] when the snapshot itself fails
    /// verification (a corrupt snapshot cannot be truncated away — the data
    /// it compacted is gone, so recovery refuses to guess).
    pub fn open(dir: impl AsRef<Path>) -> Result<(Wal, Recovered)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let snapshot_path = dir.join(SNAPSHOT_FILE);

        // One writer per store directory: two daemons appending with
        // independent sequence counters would interleave records, and the
        // next recovery would truncate everything after the first
        // out-of-order line — silent loss of acknowledged commits. The OS
        // advisory lock dies with the process, so a `kill -9` leaves the
        // store immediately reopenable.
        let lock = File::create(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(StoreError::Corrupt(format!(
                    "store directory {} is locked by another process",
                    dir.display()
                )));
            }
            Err(std::fs::TryLockError::Error(error)) => return Err(error.into()),
        }

        let (snapshot, snapshot_seq) = match std::fs::read_to_string(&snapshot_path) {
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => (None, 0),
            Err(error) => return Err(error.into()),
            Ok(mut text) => {
                let line = text.trim();
                if line.is_empty() {
                    (None, 0)
                } else {
                    let (seq, state) = unframe(line, "state")
                        .map_err(|why| StoreError::Corrupt(format!("snapshot: {why}")))?;
                    // Keep the state's text in the buffer it was read into:
                    // `state` is a slice of `text`, at this offset.
                    let start = state.as_ptr() as usize - text.as_ptr() as usize;
                    let end = start + state.len();
                    text.truncate(end);
                    text.drain(..start);
                    (Some(SnapshotText(text)), seq)
                }
            }
        };

        let mut records = Vec::new();
        let mut next_seq = snapshot_seq + u64::from(snapshot.is_some());
        let mut good_bytes = 0u64;
        let mut total_bytes = 0u64;
        match File::open(&wal_path) {
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => return Err(error.into()),
            Ok(file) => {
                total_bytes = file.metadata()?.len();
                let mut reader = BufReader::new(file);
                let mut line = String::new();
                loop {
                    line.clear();
                    let read = reader.read_line(&mut line)?;
                    if read == 0 {
                        break;
                    }
                    // A record is only valid if newline-terminated (a torn
                    // append may stop mid-line yet still parse as JSON).
                    if !line.ends_with('\n') {
                        break;
                    }
                    let Some((seq, payload)) = unframe(line.trim_end(), "rec")
                        .ok()
                        .and_then(|(seq, payload)| Some((seq, JsonValue::parse(payload).ok()?)))
                    else {
                        break;
                    };
                    if seq < next_seq && snapshot.is_some() {
                        // Pre-snapshot leftovers (rotation crashed between
                        // snapshot write and truncate): already compacted.
                        good_bytes += read as u64;
                        continue;
                    }
                    if seq != next_seq {
                        break;
                    }
                    next_seq = seq + 1;
                    good_bytes += read as u64;
                    records.push(payload);
                }
            }
        }
        let truncated_bytes = total_bytes.saturating_sub(good_bytes);
        if truncated_bytes > 0 {
            // Torn tail: cut it so future appends start on a clean boundary.
            let file = OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(good_bytes)?;
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        Ok((
            Wal {
                wal_path,
                snapshot_path,
                writer: BufWriter::new(file),
                next_seq,
                log_bytes: good_bytes,
                _lock: lock,
            },
            Recovered {
                snapshot,
                records,
                truncated_bytes,
            },
        ))
    }

    /// Appends one record, given as its JSON line, flushing it to the
    /// operating system, and returns its sequence number.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`StoreError::Corrupt`] for a record with a newline;
    /// on error the record must be considered not written.
    pub fn append(&mut self, record: &str) -> Result<u64> {
        let seq = self.next_seq;
        let written = write_frame(&mut self.writer, seq, "rec", record)?;
        self.writer.flush()?;
        self.next_seq = seq + 1;
        self.log_bytes += written;
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        Ok(())
    }

    /// Replaces the snapshot with `state`, written as its text (covering
    /// every record appended so far), and truncates the log — the
    /// compaction step. Crash-ordering: the snapshot is written to a
    /// temporary file, synced, atomically renamed into place, and only then
    /// is the log truncated, so every instant in between recovers to the
    /// same state.
    ///
    /// Returns the log size in bytes that the compaction reclaimed, which is
    /// what trace capture records for a `wal_compact` decision.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`StoreError::Corrupt`] for a state with a newline.
    pub fn compact(&mut self, state: &SnapshotText) -> Result<u64> {
        let reclaimed = self.log_bytes;
        self.sync()?;
        let seq = self.next_seq.saturating_sub(1);
        let tmp_path = self.snapshot_path.with_extension("tmp");
        {
            let mut tmp = BufWriter::new(File::create(&tmp_path)?);
            write_frame(&mut tmp, seq, "state", state.as_str())?;
            tmp.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.snapshot_path)?;
        // Reopen truncating: the old appender's cursor would leave a hole.
        let file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.wal_path)?;
        file.sync_all()?;
        let file = OpenOptions::new().append(true).open(&self.wal_path)?;
        self.writer = BufWriter::new(file);
        self.next_seq = seq + 1;
        self.log_bytes = 0;
        Ok(reclaimed)
    }

    /// Current size of the log file in bytes (0 right after a compaction).
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spi-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(n: i128) -> JsonValue {
        JsonValue::object([("t", JsonValue::string("test")), ("n", JsonValue::Int(n))])
    }

    fn record_line(n: i128) -> String {
        record(n).to_line()
    }

    /// The framed line `append` writes for `payload`, without its newline.
    fn frame(seq: u64, key: &str, payload: &str) -> String {
        let mut out = Vec::new();
        let written = write_frame(&mut out, seq, key, payload).unwrap();
        assert_eq!(written, out.len() as u64);
        let line = String::from_utf8(out).unwrap();
        line.strip_suffix('\n').unwrap().to_string()
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let dir = temp_dir("replay");
        {
            let (mut wal, recovered) = Wal::open(&dir).unwrap();
            assert!(recovered.is_empty());
            for n in 0..5 {
                assert_eq!(wal.append(&record_line(n)).unwrap(), n as u64);
            }
        }
        let (mut wal, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.records, (0..5).map(record).collect::<Vec<_>>());
        assert_eq!(wal.append(&record_line(5)).unwrap(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = temp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&record_line(0)).unwrap();
            wal.append(&record_line(1)).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the final line.
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let (mut wal, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.records, vec![record(0)]);
        assert!(recovered.truncated_bytes > 0);
        // The sequence continues from the surviving prefix.
        assert_eq!(wal.append(&record_line(9)).unwrap(), 1);
        drop(wal);
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.records, vec![record(0), record(9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_stops_replay_at_the_last_good_line() {
        let dir = temp_dir("flip");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for n in 0..3 {
                wal.append(&record_line(n)).unwrap();
            }
        }
        // Flip a payload byte in the middle record: its crc must fail and
        // replay must stop *before* it (it cannot prove the tail's order).
        let path = dir.join(WAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"n\":1", "\"n\":7", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.records, vec![record(0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_snapshots_and_truncates() {
        let dir = temp_dir("compact");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for n in 0..4 {
                wal.append(&record_line(n)).unwrap();
            }
            wal.compact(&SnapshotText::new(r#"{"upto":3}"#.to_string()))
                .unwrap();
            wal.append(&record_line(4)).unwrap();
        }
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(
            recovered.snapshot,
            Some(SnapshotText::new(r#"{"upto":3}"#.to_string()))
        );
        assert_eq!(recovered.records, vec![record(4)]);
        assert_eq!(recovered.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The snapshot comes back as the text it was written as, byte for
    /// byte, and a payload that is not one line is refused unwritten.
    #[test]
    fn a_snapshot_reads_back_as_its_text_and_payloads_are_one_line() {
        let dir = temp_dir("text");
        let state = r#"{"a":[1, 2],"s":"é \"q\""}"#;
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&record_line(0)).unwrap();
            wal.compact(&SnapshotText::new(state.to_string())).unwrap();
            assert!(matches!(
                wal.append("{\"t\":\n1}"),
                Err(StoreError::Corrupt(_))
            ));
            let torn = SnapshotText::new("{\n}".to_string());
            assert!(matches!(wal.compact(&torn), Err(StoreError::Corrupt(_))));
            assert_eq!(wal.next_seq(), 1);
        }
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(
            recovered.snapshot.as_ref().map(SnapshotText::as_str),
            Some(state)
        );
        assert!(recovered.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = temp_dir("badsnap");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&record_line(0)).unwrap();
            wal.compact(&SnapshotText::new(record_line(0))).unwrap();
        }
        let path = dir.join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"t\"", "\"u\"", 1)).unwrap();
        assert!(matches!(Wal::open(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_opener_is_rejected_until_the_first_closes() {
        let dir = temp_dir("lock");
        let (wal, _) = Wal::open(&dir).unwrap();
        assert!(matches!(Wal::open(&dir), Err(StoreError::Corrupt(_))));
        drop(wal);
        // The lock dies with the handle (and with the process, under kill -9).
        assert!(Wal::open(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_bytes_tracks_the_file_across_appends_compaction_and_reopen() {
        let dir = temp_dir("logbytes");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            assert_eq!(wal.log_bytes(), 0);
            wal.append(&record_line(0)).unwrap();
            wal.append(&record_line(1)).unwrap();
            let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
            assert_eq!(wal.log_bytes(), on_disk);
            wal.compact(&SnapshotText::new(record_line(0))).unwrap();
            assert_eq!(wal.log_bytes(), 0);
            wal.append(&record_line(2)).unwrap();
            assert!(wal.log_bytes() > 0);
        }
        let (wal, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.records, vec![record(2)]);
        let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal.log_bytes(), on_disk, "reopen resumes the byte count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Payloads with escapes, non-ASCII text and nested objects: the framed
    /// line is the one the `{seq, crc, key}` tree renders, and it reads
    /// back as what was framed.
    #[test]
    fn a_framed_line_is_the_tree_rendering_and_reads_back() {
        let payloads = [
            record(-3),
            JsonValue::object([
                ("name", JsonValue::string("équipe \"a\"\n\t\\ ✓")),
                (
                    "nested",
                    JsonValue::object([
                        ("list", JsonValue::Array(vec![JsonValue::Null, record(1)])),
                        ("ratio", JsonValue::Float(0.25)),
                        (
                            "empty",
                            JsonValue::object(Vec::<(String, JsonValue)>::new()),
                        ),
                    ]),
                ),
            ]),
            JsonValue::Array(Vec::new()),
        ];
        for (seq, payload) in payloads.iter().enumerate() {
            for key in ["rec", "state"] {
                let seq = seq as u64 * 1000;
                let line = frame(seq, key, &payload.to_line());
                let crc = digest_bytes(payload.to_line().as_bytes()).to_string();
                let tree = JsonValue::object([
                    ("seq", JsonValue::Int(i128::from(seq))),
                    ("crc", JsonValue::string(crc)),
                    (key, payload.clone()),
                ]);
                assert_eq!(line, tree.to_line());
                let (back_seq, back) = unframe(&line, key).unwrap();
                assert_eq!(
                    (back_seq, JsonValue::parse(back)),
                    (seq, Ok(payload.clone()))
                );
            }
        }
    }

    /// The checksum certifies the payload's bytes as written: one extra
    /// space leaves the value the same but fails the line, in the log and
    /// in the snapshot; so does a frame that is not the one written.
    #[test]
    fn a_payload_whose_bytes_changed_fails_even_with_the_same_value() {
        let line = frame(4, "rec", &record_line(1));
        let spaced = line.replacen("\"n\":1", "\"n\": 1", 1);
        assert_ne!(line, spaced);
        let payload = spaced.split_once(",\"rec\":").unwrap().1;
        let payload = payload.strip_suffix('}').unwrap();
        assert_eq!(JsonValue::parse(payload), Ok(record(1)));
        assert!(unframe(&spaced, "rec").unwrap_err().contains("checksum"));
        for reframed in [
            line.replacen("{\"seq\":4", "{\"seq\":04", 1),
            line.replacen("{\"seq\":4", "{ \"seq\":4", 1),
            line.replacen("\"rec\":", "\"state\":", 1),
            format!("{line} "),
        ] {
            assert!(unframe(&reframed, "rec").is_err(), "{reframed}");
        }

        let dir = temp_dir("spaced");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for n in 0..3 {
                wal.append(&record_line(n)).unwrap();
            }
        }
        let path = dir.join(WAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"n\":1", "\"n\": 1", 1)).unwrap();
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.records, vec![record(0)]);
        assert!(recovered.truncated_bytes > 0);

        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.compact(&SnapshotText::new(record_line(5))).unwrap();
        drop(wal);
        let path = dir.join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"n\":5", "\"n\": 5", 1)).unwrap();
        assert!(matches!(Wal::open(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_is_callable_and_preserves_records() {
        let dir = temp_dir("sync");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(&record_line(1)).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.next_seq(), 1);
        drop(wal);
        let (_, recovered) = Wal::open(&dir).unwrap();
        assert_eq!(recovered.records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

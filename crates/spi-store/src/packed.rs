//! Packed record rings: the one storage format behind the span rings
//! ([`crate::span`]) and the decision trace ([`crate::trace`]).
//!
//! Both keep the newest `capacity` records and drop the oldest first. Held as
//! structs, a span costs 88 bytes and a trace event 64 plus a heap string,
//! although neighbouring records differ in a few small fields. A
//! [`PackedRing`] holds them as bytes instead:
//!
//! * a record is appended to the open chunk as varints of its difference
//!   from the previous record of the chunk — LEB128, zigzag for signed
//!   deltas — by the record's [`Codec`], which is all a ring type supplies;
//! * values many records share (a span's attribution context, a tenant or
//!   worker name) go into a per-chunk table once, and records carry their
//!   index;
//! * a chunk starts from the codec's default state, so it opens with
//!   absolute values and decodes on its own, and it seals once the next
//!   record might not fit in [`CHUNK_BYTES`], so its buffer is allocated
//!   once and never grows;
//! * each chunk records its record count and its first and last sequence
//!   numbers, so a read from a cursor skips every chunk below it;
//! * the window is exact: dropping the oldest record bumps a count on the
//!   front chunk, and a chunk is freed once all its records are dropped. A
//!   ring holds its records' packed bytes plus about one chunk: the dropped
//!   head of the front chunk and the unfilled tail of the open one.

use std::collections::VecDeque;
use std::fmt;
use std::mem::size_of;
use std::ops::Range;

/// The byte budget of one chunk. Small enough that the one partly dropped
/// chunk of a full ring costs little, large enough that the per-chunk
/// tables and headers are shared by a few hundred records.
pub(crate) const CHUNK_BYTES: usize = 4096;

/// How one record is written as its difference from the previous record of
/// its chunk, and read back.
///
/// The implementing type is the running state the deltas are taken against;
/// every chunk starts from `Default`, so a chunk's first record is written
/// in absolute values.
pub(crate) trait Codec: Default {
    /// The record a ring holds.
    type Record;
    /// A value many records share, held once per chunk (see
    /// [`Writer::shared`]).
    type Shared;
    /// An upper bound on the bytes [`encode`](Self::encode) writes.
    const MAX_RECORD_BYTES: usize;

    /// Writes `record`. `gap` counts the sequence numbers skipped since the
    /// chunk's previous record (0 for its first); a codec whose records are
    /// always consecutive need not store it.
    fn encode(&mut self, gap: u64, record: &Self::Record, out: &mut Writer<'_, Self::Shared>);

    /// Reads one record written by [`encode`](Self::encode), with its gap.
    fn decode(&mut self, input: &mut Reader<'_, Self::Shared>) -> (u64, Self::Record);
}

/// Appends one record's fields to the open chunk.
pub(crate) struct Writer<'a, S> {
    bytes: &'a mut Vec<u8>,
    table: &'a mut Vec<S>,
}

impl<S> Writer<'_, S> {
    /// One raw byte.
    pub(crate) fn byte(&mut self, byte: u8) {
        self.bytes.push(byte);
    }

    /// An unsigned LEB128 varint: seven bits a byte, at most ten bytes.
    pub(crate) fn varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.bytes.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.bytes.push(value as u8);
    }

    /// `value` as the zigzag varint of its wrapping difference from `*base`,
    /// which then becomes `value`. Exact for every pair of `u64`s.
    pub(crate) fn delta(&mut self, base: &mut u64, value: u64) {
        let diff = value.wrapping_sub(*base) as i64;
        self.varint(((diff << 1) ^ (diff >> 63)) as u64);
        *base = value;
    }

    /// The index of the chunk-table entry `matches` accepts, adding `make()`
    /// to the table when none does.
    pub(crate) fn shared(&mut self, matches: impl Fn(&S) -> bool, make: impl FnOnce() -> S) {
        let index = match self.table.iter().rposition(matches) {
            Some(index) => index,
            None => {
                self.table.push(make());
                self.table.len() - 1
            }
        };
        self.varint(index as u64);
    }
}

/// Reads one record's fields back, in the order they were written.
pub(crate) struct Reader<'a, S> {
    bytes: &'a [u8],
    table: &'a [S],
}

impl<'a, S> Reader<'a, S> {
    /// One raw byte.
    pub(crate) fn byte(&mut self) -> u8 {
        let (&byte, rest) = self
            .bytes
            .split_first()
            .expect("a chunk holds whole records");
        self.bytes = rest;
        byte
    }

    /// An unsigned LEB128 varint.
    pub(crate) fn varint(&mut self) -> u64 {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.byte();
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }

    /// A value written by [`Writer::delta`] against the same `*base`, which
    /// then becomes the value.
    pub(crate) fn delta(&mut self, base: &mut u64) -> u64 {
        let zigzag = self.varint();
        let diff = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        *base = base.wrapping_add(diff as u64);
        *base
    }

    /// The chunk-table entry written by [`Writer::shared`].
    pub(crate) fn shared(&mut self) -> &'a S {
        &self.table[self.varint() as usize]
    }
}

/// A run of encoded records with its shared-value table.
struct Chunk<S> {
    bytes: Vec<u8>,
    table: Vec<S>,
    first_seq: u64,
    last_seq: u64,
    records: usize,
    /// How many of the leading records the ring has dropped.
    dropped: usize,
}

/// A bounded ring of records packed by `C`, keeping the newest `capacity`.
pub(crate) struct PackedRing<C: Codec> {
    capacity: usize,
    /// Records held: the chunks' records minus their dropped ones.
    len: usize,
    chunks: VecDeque<Chunk<C::Shared>>,
    /// The delta state after the last record of the open (back) chunk.
    state: C,
}

impl<C: Codec> Default for PackedRing<C> {
    fn default() -> Self {
        PackedRing::new(0)
    }
}

impl<C: Codec> fmt::Debug for PackedRing<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedRing")
            .field("capacity", &self.capacity)
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl<C: Codec> PackedRing<C> {
    /// An empty ring that keeps at most `capacity` records.
    pub(crate) fn new(capacity: usize) -> Self {
        PackedRing {
            capacity,
            len: 0,
            chunks: VecDeque::new(),
            state: C::default(),
        }
    }

    /// The most records the ring keeps.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `record` under sequence number `seq`, which must exceed every
    /// seq pushed before, and drops the oldest record once more than
    /// `capacity` are held. Returns whether a record was dropped.
    pub(crate) fn push(&mut self, seq: u64, record: &C::Record) -> bool {
        let sealed = self
            .chunks
            .back()
            .is_none_or(|chunk| chunk.bytes.len() + C::MAX_RECORD_BYTES > CHUNK_BYTES);
        if sealed {
            self.chunks.push_back(Chunk {
                bytes: Vec::with_capacity(CHUNK_BYTES),
                table: Vec::new(),
                first_seq: seq,
                last_seq: seq,
                records: 0,
                dropped: 0,
            });
            self.state = C::default();
        }
        let chunk = self.chunks.back_mut().expect("a chunk is open");
        let gap = if chunk.records == 0 {
            0
        } else {
            seq - chunk.last_seq - 1
        };
        self.state.encode(
            gap,
            record,
            &mut Writer {
                bytes: &mut chunk.bytes,
                table: &mut chunk.table,
            },
        );
        chunk.last_seq = seq;
        chunk.records += 1;
        self.len += 1;
        if self.len <= self.capacity {
            return false;
        }
        let front = self
            .chunks
            .front_mut()
            .expect("a non-empty ring has a chunk");
        front.dropped += 1;
        if front.dropped == front.records {
            self.chunks.pop_front();
        }
        self.len -= 1;
        true
    }

    /// Calls `visit` with every held record whose seq lies in `range`, oldest
    /// first. Chunks wholly below the range are skipped undecoded, and the
    /// read stops at the first seq past it.
    pub(crate) fn read(&self, range: Range<u64>, mut visit: impl FnMut(u64, C::Record)) {
        for chunk in self.chunks.iter().filter(|c| c.last_seq >= range.start) {
            let mut state = C::default();
            let mut input = Reader {
                bytes: &chunk.bytes,
                table: &chunk.table,
            };
            let mut seq = chunk.first_seq;
            for at in 0..chunk.records {
                let (gap, record) = state.decode(&mut input);
                if at > 0 {
                    seq += gap + 1;
                }
                if seq >= range.end {
                    return;
                }
                if at >= chunk.dropped && seq >= range.start {
                    visit(seq, record);
                }
            }
        }
    }

    /// An upper bound on the records [`read`](Self::read) visits from
    /// `since` on, from the chunk headers alone.
    pub(crate) fn len_since(&self, since: u64) -> usize {
        self.chunks
            .iter()
            .filter(|chunk| chunk.last_seq >= since)
            .map(|chunk| chunk.records - chunk.dropped)
            .sum()
    }

    /// The bytes the ring has allocated: chunk buffers, chunk tables and the
    /// chunk list itself (not what the table entries point to).
    pub(crate) fn allocated_bytes(&self) -> usize {
        let chunks: usize = self
            .chunks
            .iter()
            .map(|chunk| chunk.bytes.capacity() + chunk.table.capacity() * size_of::<C::Shared>())
            .sum();
        chunks + self.chunks.capacity() * size_of::<Chunk<C::Shared>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of two numbers written as two deltas and a gap, plus a name
    /// from the chunk table.
    #[derive(Default)]
    struct PairCodec {
        a: u64,
        b: u64,
    }

    type Pair = (u64, u64, String);

    impl Codec for PairCodec {
        type Record = Pair;
        type Shared = String;
        const MAX_RECORD_BYTES: usize = 40;

        fn encode(&mut self, gap: u64, record: &Pair, out: &mut Writer<'_, String>) {
            out.varint(gap);
            out.delta(&mut self.a, record.0);
            out.delta(&mut self.b, record.1);
            out.shared(|name| *name == record.2, || record.2.clone());
        }

        fn decode(&mut self, input: &mut Reader<'_, String>) -> (u64, Pair) {
            let gap = input.varint();
            let a = input.delta(&mut self.a);
            let b = input.delta(&mut self.b);
            (gap, (a, b, input.shared().clone()))
        }
    }

    fn held(ring: &PackedRing<PairCodec>, range: Range<u64>) -> Vec<(u64, Pair)> {
        let mut out = Vec::new();
        ring.read(range, |seq, record| out.push((seq, record)));
        out
    }

    #[test]
    fn extreme_values_round_trip() {
        let values = [0, 1, 63, 64, 127, 128, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let mut ring = PackedRing::<PairCodec>::new(1 << 20);
        let mut expected = Vec::new();
        let mut seq = 0;
        for (at, a) in values.iter().enumerate() {
            for b in values.iter().rev() {
                seq += 1 + (at as u64 % 3) * 1000;
                let record = (*a, *b, format!("n{}", b % 5));
                ring.push(seq, &record);
                expected.push((seq, record));
            }
        }
        assert_eq!(held(&ring, 0..u64::MAX), expected);
        assert_eq!(ring.len(), expected.len());
    }

    #[test]
    fn the_window_is_exact_across_chunks() {
        let mut ring = PackedRing::<PairCodec>::new(3000);
        let mut dropped = 0;
        for seq in 0..5000u64 {
            dropped += u64::from(ring.push(seq, &(seq * 7, u64::MAX - seq, "x".to_string())));
        }
        assert_eq!(dropped, 2000);
        assert_eq!(ring.len(), 3000);
        let kept = held(&ring, 0..u64::MAX);
        assert_eq!(kept.first().map(|(seq, _)| *seq), Some(2000));
        assert_eq!(kept.len(), 3000);
        assert!(ring.chunks.len() > 2, "the records span several chunks");
        assert!(ring
            .chunks
            .iter()
            .all(|chunk| chunk.bytes.capacity() == CHUNK_BYTES));
        // A cursor skips whole chunks and the end of the range stops the read.
        assert_eq!(held(&ring, 4990..4995).len(), 5);
        assert!(ring.len_since(4990) < 3000);
        assert!(held(&ring, 6000..u64::MAX).is_empty());
    }

    #[test]
    fn a_one_record_ring_keeps_the_newest() {
        let mut ring = PackedRing::<PairCodec>::new(1);
        assert!(!ring.push(3, &(1, 2, "a".to_string())));
        for seq in 4..2000 {
            assert!(ring.push(seq, &(seq, seq, "b".to_string())));
        }
        assert_eq!(
            held(&ring, 0..u64::MAX),
            vec![(1999, (1999, 1999, "b".to_string()))]
        );
        assert!(ring.allocated_bytes() <= 2 * CHUNK_BYTES);
    }
}

// Package segstore is the compact binary profile store behind
// service.Store: a versioned record codec for personalized HRTF profiles
// persisted in append-only segment files with an in-memory key index.
//
// Layout. A store directory holds numbered segment files
// (seg-00000001.uqs, ...). Each segment starts with a fixed header (magic,
// format version) followed by a sequence of framed records:
//
//	┌──────────┬──────┬─────────┬───────────┬─────────────┬───────┬─────────┐
//	│ magic u32│ kind │ lsn     │ key       │ payload     │ crc32 │ chain   │
//	│ "UQR1"   │ u8=1 │ uvarint │ uvarint+b │ uvarint+b   │ u32   │ u64     │
//	└──────────┴──────┴─────────┴───────────┴─────────────┴───────┴─────────┘
//
// The CRC (Castagnoli) covers everything before it; the chain word is a
// running FNV-1a hash of every previous record's CRC in the segment, so a
// torn tail — a partial record, or a stale block resurfacing after a crash
// — is detected even when the garbage happens to look like a framed
// record. Open recovers every record before the first damaged byte and
// reports (never silently drops) the truncated tail.
//
// Records are never rewritten in place or deleted. A Put appends a new
// record whose log sequence number (lsn) supersedes any older record for
// the same key. The in-memory index maps key → (segment, offset, length,
// summary) of the winning record, so Get is one pread + decode, and Keys
// and Summary are pure index reads. Background compaction rewrites
// segments whose dead-byte ratio crosses a threshold, reclaiming
// superseded records.
//
// Durability is group-committed: a Put appends under a short lock, then
// joins the current fsync batch — one Sync covers every record appended
// while the previous Sync was in flight, so N concurrent writers pay ~2
// fsyncs, not N. PutBatch amortizes further for bulk loads (one Sync per
// batch).
//
// The profile payload codec (see codec.go) stores float64 taps losslessly
// — XOR-compressed (Gorilla-style) when that wins, raw little-endian
// otherwise — with delta-encoded per-angle tap-length metadata, so a
// stored table round-trips bit-exactly. A payload opens with a short
// opaque summary (PutWithSummary; empty for Put) that Open and every write
// copy into the index, so a caller can read what it keeps there about each
// profile without decoding one. Payloads of an older codec version are
// refused.
package segstore

package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Options tunes a Store. The zero value is a production configuration.
type Options struct {
	// SegmentBytes rolls the active segment once it grows past this size
	// (default 64 MiB).
	SegmentBytes int64
	// CompactRatio triggers background compaction of a sealed segment once
	// dead bytes exceed this fraction of its record bytes (default 0.5;
	// >= 1 disables ratio-triggered compaction).
	CompactRatio float64
	// MinCompactBytes exempts segments smaller than this from ratio-based
	// compaction (default 1 MiB) — rewriting tiny files buys nothing.
	MinCompactBytes int64
	// NoSync skips fsync on Put/PutBatch (bulk loads, tests). Compaction
	// still syncs before deleting a source segment.
	NoSync bool
	// ReadOnly opens the store for reads only: no tail truncation, no
	// compaction, and every mutating call fails with ErrReadOnly.
	ReadOnly bool
	// DisableCompaction turns the background compactor off; Compact can
	// still be called explicitly.
	DisableCompaction bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.5
	}
	if o.MinCompactBytes <= 0 {
		o.MinCompactBytes = 1 << 20
	}
	return o
}

// recLoc locates a key's winning record.
type recLoc struct {
	seg     uint32
	off     int64 // byte offset of the framed record
	size    int64 // framed record size
	lsn     uint64
	summary string // the record's payload summary ("" for none)
}

// segment is one on-disk segment file.
type segment struct {
	id   uint32
	path string
	f    *os.File
	// size is the file size including the header. Atomic because the
	// appender advances it under appendMu while Stats and the compactor
	// read it under mu — two different locks.
	size atomic.Int64
	live int64 // bytes of records the index points at
	dead int64 // bytes of superseded records
}

func (s *segment) deadRatio() float64 {
	total := s.live + s.dead
	if total == 0 {
		return 0
	}
	return float64(s.dead) / float64(total)
}

// RecoveryReport describes damage found (and recovered around) by Open.
type RecoveryReport struct {
	// DamagedSegments counts segments with a corrupt or torn region.
	DamagedSegments int
	// DroppedBytes is the total unreadable bytes past the last verified
	// record of each damaged segment.
	DroppedBytes int64
	// TruncatedTail is true when the active segment's torn tail was cut
	// off so appends restart from a verified record boundary.
	TruncatedTail bool
	// Details holds one human-readable line per damaged segment.
	Details []string
}

// Damaged reports whether Open found any corruption.
func (r RecoveryReport) Damaged() bool { return r.DamagedSegments > 0 }

// Stats is a point-in-time store summary.
type Stats struct {
	// Profiles counts stored keys.
	Profiles int
	// Segments counts on-disk segment files.
	Segments int
	// DiskBytes is the total size of all segment files.
	DiskBytes int64
	// LiveBytes / DeadBytes split record bytes into index-reachable and
	// superseded.
	LiveBytes, DeadBytes int64
	// Puts / Gets count operations; Gets counts full record decodes
	// (there is no cache at this layer).
	Puts, Gets uint64
	// GroupCommits counts fsyncs; CommitWaiters counts Put calls that
	// requested durability. Waiters/Commits is the group-commit batching
	// factor.
	GroupCommits, CommitWaiters uint64
	// Compactions counts completed segment rewrites.
	Compactions uint64
	// Recovery is the damage report from Open.
	Recovery RecoveryReport
}

// Store is an append-only segmented profile store. All methods are safe
// for concurrent use.
type Store struct {
	dir string
	opt Options

	// mu guards the index and segment map. Held only for in-memory work,
	// never across file I/O on the read path's pread or any fsync.
	mu    sync.RWMutex
	index map[string]recLoc
	segs  map[uint32]*segment

	// appendMu serializes appends to the active segment (and segment
	// rolls). fsync happens outside it, so appends never stall behind a
	// slow disk flush.
	appendMu    sync.Mutex
	active      *segment
	chain       uint64 // chain state after the active segment's last record
	nextLSN     uint64
	appendedSeq uint64 // records appended (commit sequencing)

	// Group commit: one in-flight fsync covers every record appended
	// while it ran; late arrivals wait on cond for the next leader.
	syncMu       sync.Mutex
	syncCond     *sync.Cond
	syncInFlight bool
	syncedSeq    uint64
	failedSeq    uint64
	failedErr    error

	closed   atomic.Bool
	kickCh   chan struct{}
	closeCh  chan struct{}
	wg       sync.WaitGroup
	recovery RecoveryReport

	puts, gets                  atomic.Uint64
	groupCommits, commitWaiters atomic.Uint64
	compactions                 atomic.Uint64
	syncHook                    func() // test seam: runs in the sync leader before fsync
}

const segSuffix = ".uqs"

func segName(id uint32) string { return fmt.Sprintf("seg-%08d%s", id, segSuffix) }

// Open opens a segment store rooted at dir, creating the directory unless
// ReadOnly is set: a read-only open of a missing directory fails. Damaged
// tails are recovered around and reported via Stats().Recovery; the active
// segment's torn tail is truncated (unless ReadOnly) so appends restart
// from a verified boundary.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("segstore: store needs a directory")
	}
	opt = opt.withDefaults()
	if !opt.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("segstore: create store dir: %w", err)
		}
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		index:   make(map[string]recLoc),
		segs:    make(map[uint32]*segment),
		kickCh:  make(chan struct{}, 1),
		closeCh: make(chan struct{}),
	}
	s.syncCond = sync.NewCond(&s.syncMu)
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if !opt.ReadOnly && !opt.DisableCompaction {
		s.wg.Add(1)
		go s.compactor()
		s.maybeKickCompaction()
	}
	return s, nil
}

// load scans every segment in id order and rebuilds the index. The record
// with the highest LSN wins per key; everything else is dead bytes.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("segstore: list segments: %w", err)
	}
	var ids []uint32
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "seg-%08d"+segSuffix, &id); err != nil || id == 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	perSeg := make(map[uint32][]scanCandidate)
	for _, id := range ids {
		seg, res, err := s.scanOne(id)
		if err != nil {
			return err
		}
		s.segs[id] = seg
		if res.maxLSN >= s.nextLSN {
			s.nextLSN = res.maxLSN + 1
		}
		perSeg[id] = res.cands
		last := id == ids[len(ids)-1]
		if res.damage != nil {
			dropped := seg.size.Load() - res.goodEnd
			s.recovery.DamagedSegments++
			s.recovery.DroppedBytes += dropped
			s.recovery.Details = append(s.recovery.Details,
				fmt.Sprintf("%s: %d bytes dropped after offset %d: %v", segName(id), dropped, res.goodEnd, res.damage))
			if last && !s.opt.ReadOnly {
				if res.goodEnd < segHeaderSize {
					res.goodEnd = segHeaderSize
				}
				if err := seg.f.Truncate(res.goodEnd); err != nil {
					return fmt.Errorf("segstore: truncate damaged tail of %s: %w", segName(id), err)
				}
				if res.goodEnd == segHeaderSize {
					// No record survived past the header, which means the
					// header itself may be short or corrupt (a crash between
					// createSegment and the header reaching disk leaves a
					// 0-byte file). Rewrite it before accepting appends:
					// otherwise records appended — and fsync-acknowledged —
					// from here on sit behind a bad header, and the next Open
					// fails the magic check at offset 0 and silently truncates
					// them all away.
					if _, err := seg.f.WriteAt(segFileHeader(), 0); err != nil {
						return fmt.Errorf("segstore: rewrite %s header: %w", segName(id), err)
					}
					if err := seg.f.Sync(); err != nil {
						return fmt.Errorf("segstore: sync %s header: %w", segName(id), err)
					}
				}
				s.recovery.TruncatedTail = true
			}
			seg.size.Store(res.goodEnd)
		}
		if last {
			s.active = seg
			s.chain = res.chain
		}
	}

	// Winner resolution (highest LSN per key), then per-segment live/dead
	// byte accounting once winners are known.
	for _, cands := range perSeg {
		for _, c := range cands {
			cur, ok := s.index[c.key]
			if !ok || c.loc.lsn > cur.lsn {
				s.index[c.key] = c.loc
			}
		}
	}
	for id, cands := range perSeg {
		seg := s.segs[id]
		for _, c := range cands {
			if cur := s.index[c.key]; cur.seg == id && cur.off == c.loc.off {
				seg.live += c.loc.size
			} else {
				seg.dead += c.loc.size
			}
		}
	}

	if s.active == nil {
		if s.opt.ReadOnly {
			// An empty read-only store is legal: zero segments, empty index.
			return nil
		}
		seg, err := s.createSegment(1)
		if err != nil {
			return err
		}
		s.segs[seg.id] = seg
		s.active = seg
		s.chain = chainSeed
	}
	if s.nextLSN == 0 {
		s.nextLSN = 1
	}
	return nil
}

// scanCandidate is one record seen during load, before winner resolution.
type scanCandidate struct {
	key string
	loc recLoc
}

type segScan struct {
	goodEnd int64
	chain   uint64
	maxLSN  uint64
	damage  error
	cands   []scanCandidate
}

// scanOne opens and scans one existing segment file.
func (s *Store) scanOne(id uint32) (*segment, *segScan, error) {
	path := filepath.Join(s.dir, segName(id))
	flag := os.O_RDWR
	if s.opt.ReadOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("segstore: open %s: %w", segName(id), err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("segstore: stat %s: %w", segName(id), err)
	}
	seg := &segment{id: id, path: path, f: f}
	seg.size.Store(st.Size())
	res := &segScan{goodEnd: segHeaderSize, chain: chainSeed}

	header := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, header); err != nil {
		res.damage = fmt.Errorf("segstore: %s header unreadable: %w", segName(id), err)
		res.goodEnd = 0
		return seg, res, nil
	}
	if err := checkSegHeader(header); err != nil {
		res.damage = err
		res.goodEnd = segHeaderSize
		return seg, res, nil
	}
	sr, err := scanSegment(io.NewSectionReader(f, segHeaderSize, seg.size.Load()-segHeaderSize), segHeaderSize,
		func(rec record, off, size int64) error {
			res.cands = append(res.cands, scanCandidate{
				key: rec.key,
				loc: newRecLoc(id, off, size, rec.lsn, rec.payload),
			})
			return nil
		})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	res.goodEnd = sr.goodEnd
	res.chain = sr.chain
	res.maxLSN = sr.maxLSN
	res.damage = sr.damage
	return seg, res, nil
}

// newRecLoc builds the index entry for a record, copying its payload's
// summary out of the payload so the entry keeps no reference to it.
func newRecLoc(seg uint32, off, size int64, lsn uint64, payload []byte) recLoc {
	return recLoc{seg: seg, off: off, size: size, lsn: lsn, summary: string(payloadSummary(payload))}
}

func (s *Store) createSegment(id uint32) (*segment, error) {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segstore: create %s: %w", segName(id), err)
	}
	if _, err := f.Write(segFileHeader()); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("segstore: write %s header: %w", segName(id), err)
	}
	if !s.opt.NoSync {
		// Make the header durable up front so a crash right after a roll
		// cannot leave a headerless tail file. (load repairs that case too;
		// this just keeps the common path from ever needing the repair.)
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("segstore: sync %s header: %w", segName(id), err)
		}
	}
	seg := &segment{id: id, path: path, f: f}
	seg.size.Store(segHeaderSize)
	return seg, nil
}

// Put durably persists a profile under its User key (group-committed
// unless Options.NoSync), with an empty summary.
func (s *Store) Put(p *Profile) error { return s.PutWithSummary(p, nil) }

// PutWithSummary is Put with a summary: up to maxSummaryLen opaque bytes
// stored at the head of the record's payload and kept in the in-memory
// index, where Summary serves them without decoding the profile.
func (s *Store) PutWithSummary(p *Profile, summary []byte) error {
	if p == nil || p.User == "" {
		return errors.New("segstore: profile needs a user key")
	}
	payload, err := encodePayload(p, summary)
	if err != nil {
		return err
	}
	seq, err := s.appendAndIndex(p.User, payload)
	if err != nil {
		return err
	}
	s.puts.Add(1)
	if err := s.commit(seq); err != nil {
		return err
	}
	s.maybeKickCompaction()
	return nil
}

// PutBatch persists profiles with a single group commit at the end — the
// bulk-load path (restores, rebalancing).
func (s *Store) PutBatch(ps []*Profile) error {
	var lastSeq uint64
	for _, p := range ps {
		if p == nil || p.User == "" {
			return errors.New("segstore: profile needs a user key")
		}
		payload, err := EncodeProfile(p)
		if err != nil {
			return err
		}
		seq, err := s.appendAndIndex(p.User, payload)
		if err != nil {
			return err
		}
		lastSeq = seq
		s.puts.Add(1)
	}
	if len(ps) == 0 {
		return nil
	}
	if err := s.commit(lastSeq); err != nil {
		return err
	}
	s.maybeKickCompaction()
	return nil
}

// appendAndIndex frames and appends one profile record, then repoints the
// index. Both steps happen under appendMu: a writer's append and its index
// update are atomic with respect to the compactor's check-relocate-repoint
// sequence, so compaction can never relocate a copy the writer's record
// just superseded, which would point the index back at the older version.
// It returns the record's commit sequence number.
func (s *Store) appendAndIndex(key string, payload []byte) (uint64, error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	loc, seq, err := s.appendLocked(key, payload, 0, true)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.repointLocked(key, loc)
	s.mu.Unlock()
	return seq, nil
}

// appendLocked writes one framed profile record to the active segment
// (rolling it first if full). With fresh=true the record is stamped with a new LSN;
// compaction passes fresh=false to relocate records under their *original*
// LSN, so a replay after restart still ranks them below any Put that raced
// the compactor. Caller holds appendMu; fsync happens later in commit.
func (s *Store) appendLocked(key string, payload []byte, lsn uint64, fresh bool) (recLoc, uint64, error) {
	if s.opt.ReadOnly {
		return recLoc{}, 0, ErrReadOnly
	}
	if s.closed.Load() {
		return recLoc{}, 0, ErrClosed
	}
	if s.active.size.Load() >= s.opt.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return recLoc{}, 0, err
		}
	}
	if fresh {
		lsn = s.nextLSN
		s.nextLSN++
	}
	buf, chain := appendRecordBytes(nil, lsn, key, payload, s.chain)
	off := s.active.size.Load()
	if _, err := s.active.f.WriteAt(buf, off); err != nil {
		// The tail may now hold a partial record; the chain catches it on
		// the next open. Do not advance our in-memory state.
		if fresh {
			s.nextLSN--
		}
		return recLoc{}, 0, fmt.Errorf("segstore: append record: %w", err)
	}
	s.active.size.Store(off + int64(len(buf)))
	s.chain = chain
	s.appendedSeq++
	return newRecLoc(s.active.id, off, int64(len(buf)), lsn, payload), s.appendedSeq, nil
}

// rollLocked seals the active segment (fsync) and opens the next one.
// Caller holds appendMu. The fsync here guarantees that a later group
// commit only ever needs to sync the current active file.
func (s *Store) rollLocked() error {
	if !s.opt.NoSync {
		if err := s.active.f.Sync(); err != nil {
			return fmt.Errorf("segstore: seal %s: %w", segName(s.active.id), err)
		}
	}
	next, err := s.createSegment(s.active.id + 1)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.segs[next.id] = next
	// The active pointer is written here under BOTH locks: the append
	// path reads it under appendMu (which the caller holds), the
	// compactor under mu. Either lock alone is enough to read it.
	s.active = next
	s.mu.Unlock()
	s.chain = chainSeed
	return nil
}

// repointLocked makes loc the winning record for key, moving the previous
// winner's bytes into its segment's dead count. Caller holds s.mu.
func (s *Store) repointLocked(key string, loc recLoc) {
	if old, ok := s.index[key]; ok {
		if seg := s.segs[old.seg]; seg != nil {
			seg.live -= old.size
			seg.dead += old.size
		}
	}
	s.index[key] = loc
	if seg := s.segs[loc.seg]; seg != nil {
		seg.live += loc.size
	}
}

// commit makes every record up to seq durable via group commit: if a sync
// is already in flight, wait for it and let the next leader's single
// fsync cover this record along with everything else appended meanwhile.
func (s *Store) commit(seq uint64) error {
	if s.opt.NoSync {
		return nil
	}
	s.commitWaiters.Add(1)
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.syncedSeq < seq {
		if s.syncInFlight {
			s.syncCond.Wait()
			continue
		}
		s.syncInFlight = true
		s.syncMu.Unlock()

		if s.syncHook != nil {
			s.syncHook()
		}
		s.appendMu.Lock()
		f := s.active.f
		target := s.appendedSeq
		s.appendMu.Unlock()
		err := f.Sync()
		s.groupCommits.Add(1)

		s.syncMu.Lock()
		s.syncInFlight = false
		if target > s.syncedSeq {
			s.syncedSeq = target
		}
		if err != nil && target > s.failedSeq {
			s.failedSeq, s.failedErr = target, err
		}
		s.syncCond.Broadcast()
	}
	if seq <= s.failedSeq {
		return fmt.Errorf("segstore: fsync failed: %w", s.failedErr)
	}
	return nil
}

// Get returns the profile stored under key. It is always a cold read: one
// pread of the framed record, CRC verification, and a payload decode.
func (s *Store) Get(key string) (*Profile, error) {
	rec, err := s.readRecord(key)
	if err != nil {
		return nil, err
	}
	p, err := DecodeProfile(rec.payload)
	if err != nil {
		return nil, fmt.Errorf("segstore: decode profile %q: %w", key, err)
	}
	s.gets.Add(1)
	return p, nil
}

// readRecord fetches and CRC-verifies the winning framed record for key.
// Compaction may move a record between the index lookup and the pread;
// retries re-resolve the location.
func (s *Store) readRecord(key string) (record, error) {
	for attempt := 0; ; attempt++ {
		s.mu.RLock()
		loc, ok := s.index[key]
		var f *os.File
		if ok {
			if seg := s.segs[loc.seg]; seg != nil {
				f = seg.f
			}
		}
		s.mu.RUnlock()
		if !ok {
			return record{}, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		if f != nil {
			buf := make([]byte, loc.size)
			if _, err := f.ReadAt(buf, loc.off); err == nil {
				rec, err := parseRecordBytes(buf)
				if err == nil {
					if rec.key != key {
						return record{}, fmt.Errorf("segstore: index pointed %q at a record for %q", key, rec.key)
					}
					return rec, nil
				}
				if attempt >= 2 {
					return record{}, err
				}
			} else if attempt >= 2 {
				return record{}, fmt.Errorf("segstore: read record %q: %w", key, err)
			}
		} else if attempt >= 2 {
			return record{}, fmt.Errorf("segstore: no segment for %q", key)
		}
		// Lost a race with compaction relocating the record; re-resolve.
	}
}

// Summary returns the summary stored with key's record (nil when the
// record has none). ok is false when key has no record. It is a pure index
// read: no disk I/O, no decode.
func (s *Store) Summary(key string) (summary []byte, ok bool) {
	s.mu.RLock()
	loc, ok := s.index[key]
	s.mu.RUnlock()
	if ok && loc.summary != "" {
		summary = []byte(loc.summary)
	}
	return summary, ok
}

// Keys returns every stored key, sorted. It never touches disk.
func (s *Store) Keys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:          s.puts.Load(),
		Gets:          s.gets.Load(),
		GroupCommits:  s.groupCommits.Load(),
		CommitWaiters: s.commitWaiters.Load(),
		Compactions:   s.compactions.Load(),
		Recovery:      s.recovery,
	}
	s.mu.RLock()
	st.Profiles = len(s.index)
	st.Segments = len(s.segs)
	for _, seg := range s.segs {
		st.DiskBytes += seg.size.Load()
		st.LiveBytes += seg.live
		st.DeadBytes += seg.dead
	}
	s.mu.RUnlock()
	return st
}

// Close stops background compaction and flushes the active segment. The
// store stays readable (Get/Keys/Summary); mutations fail with ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.kickCh != nil {
		close(s.closeCh)
		s.wg.Wait()
	}
	if s.opt.ReadOnly {
		return nil
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if s.active != nil {
		// NoSync stores settle on Close too: the one place bulk loads pay
		// for durability.
		return s.active.f.Sync()
	}
	return nil
}

// closeFiles releases every open segment handle (failed-open cleanup).
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// maybeKickCompaction nudges the background compactor without blocking.
func (s *Store) maybeKickCompaction() {
	if s.opt.ReadOnly || s.opt.DisableCompaction {
		return
	}
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// compactor drains kick signals and rewrites segments until no victim
// qualifies.
func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.kickCh:
		}
		for {
			select {
			case <-s.closeCh:
				return
			default:
			}
			compacted, err := s.compactOnce()
			if err != nil || !compacted {
				break
			}
		}
	}
}

// Compact synchronously rewrites qualifying segments until none is past
// the dead-bytes threshold. It is the explicit form of what the
// background compactor does on its own.
func (s *Store) Compact() error {
	if s.opt.ReadOnly {
		return ErrReadOnly
	}
	for {
		compacted, err := s.compactOnce()
		if err != nil {
			return err
		}
		if !compacted {
			return nil
		}
	}
}

// pickVictim chooses the sealed segment most worth rewriting: past the
// dead-ratio threshold (or fully dead), largest dead-byte count first.
func (s *Store) pickVictim() *segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var victim *segment
	for _, seg := range s.segs {
		if seg == s.active {
			continue
		}
		total := seg.live + seg.dead
		fullyDead := total > 0 && seg.live == 0
		pastRatio := seg.dead >= int64(float64(total)*s.opt.CompactRatio) &&
			total >= s.opt.MinCompactBytes && s.opt.CompactRatio < 1
		empty := total == 0 // header-only leftover
		if !fullyDead && !pastRatio && !empty {
			continue
		}
		if victim == nil || seg.dead > victim.dead {
			victim = seg
		}
	}
	return victim
}

// compactOnce rewrites one victim segment: every record the index still
// points at is re-appended to the active segment and repointed; superseded
// records are dropped. The victim file is deleted once the relocated
// records are durable.
func (s *Store) compactOnce() (bool, error) {
	if s.closed.Load() {
		return false, nil
	}
	victim := s.pickVictim()
	if victim == nil {
		return false, nil
	}

	// Segments that received relocated records; each must be made durable
	// before the victim — the only other copy — is unlinked.
	relocSegs := make(map[uint32]bool)
	sr := io.NewSectionReader(victim.f, segHeaderSize, victim.size.Load()-segHeaderSize)
	_, err := scanSegment(sr, segHeaderSize, func(rec record, off, size int64) error {
		// appendMu is held across check + relocate + repoint. Writers
		// update the index under appendMu too (appendAndIndex), so the
		// entry checked here cannot be superseded mid-relocation. Without
		// that, a Put racing this callback is shadowed: the compactor
		// repoints the index from the new version at its relocated copy
		// of the old one, and readers get the old profile until a restart
		// replays the LSNs.
		s.appendMu.Lock()
		defer s.appendMu.Unlock()
		s.mu.RLock()
		cur, ok := s.index[rec.key]
		s.mu.RUnlock()
		if !ok || cur.seg != victim.id || cur.off != off {
			return nil // superseded: drop
		}
		// Relocate, preserving the original LSN so replay ordering is
		// unchanged, then repoint the index at the new copy.
		newLoc, _, err := s.appendLocked(rec.key, rec.payload, rec.lsn, false)
		if err != nil {
			return err
		}
		relocSegs[newLoc.seg] = true
		s.mu.Lock()
		s.repointLocked(rec.key, newLoc)
		s.mu.Unlock()
		return nil
	})
	if err != nil {
		return false, fmt.Errorf("segstore: compact %s: %w", segName(victim.id), err)
	}

	// Relocated records must be durable before their only other copy is
	// unlinked — even on NoSync stores. Sync every segment that received a
	// relocation, not just the current active one: a roll mid-scan seals a
	// segment holding relocated records, and on NoSync stores the seal
	// skips its fsync.
	for id := range relocSegs {
		s.mu.RLock()
		seg := s.segs[id]
		s.mu.RUnlock()
		if seg == nil {
			// A concurrent explicit Compact already rewrote this segment;
			// it synced the relocated copies onward before unlinking it.
			continue
		}
		if err := seg.f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
			return false, fmt.Errorf("segstore: compact sync %s: %w", segName(id), err)
		}
	}

	s.mu.Lock()
	// The roll path can have made the victim active again only if ids
	// wrapped, which they do not; double-check anyway.
	if s.segs[victim.id] != victim || victim == s.active {
		s.mu.Unlock()
		return false, nil
	}
	delete(s.segs, victim.id)
	s.mu.Unlock()
	victim.f.Close()
	if err := os.Remove(victim.path); err != nil {
		return false, fmt.Errorf("segstore: remove %s: %w", segName(victim.id), err)
	}
	s.compactions.Add(1)
	return true, nil
}

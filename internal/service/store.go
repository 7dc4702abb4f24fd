package service

import (
	"container/list"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/prior"
	"repro/internal/segstore"
)

// StoredProfile is the persisted form of a completed personalization: the
// §4.4 lookup table plus the provenance a deployment wants alongside it.
// It is an alias of segstore.Profile so the binary store, the service API
// and the CLI all share one type (the JSON tags on it are the wire shape;
// the segment codec is the disk shape).
type StoredProfile = segstore.Profile

// ErrProfileNotFound is returned by Store.Get for unknown users.
var ErrProfileNotFound = errors.New("service: no profile stored for that user")

// ErrBadUser is returned for user identifiers the store refuses to accept
// as keys.
var ErrBadUser = errors.New("service: invalid user id")

// validUser matches the identifiers accepted as profile owners. They
// appear in URL paths, log lines and segment-store keys, so the alphabet
// is deliberately narrow.
var validUser = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidUser reports whether a user identifier is acceptable to the store.
func ValidUser(user string) bool {
	return validUser.MatchString(user) && !strings.Contains(user, "..")
}

// Store persists profiles in an append-only binary segment store under dir
// (see internal/segstore), with an LRU cache of decoded profiles in front.
//
// Profiles returned by Get are shared: callers must treat them (and their
// tables) as read-only.
type Store struct {
	cap int
	seg *segstore.Store

	mu       sync.Mutex
	byKey    map[string]*list.Element // user -> element; value is *StoredProfile
	order    *list.List               // front = most recently used
	inflight map[string]*loadCall     // user -> in-progress cold read

	hits, misses, notFound, evictions atomic.Uint64

	// putStall, when set, runs during Put's disk-write section while no
	// lock is held (regression seam: a slow write must not block reads).
	putStall func()

	closeOnce sync.Once
	closeErr  error
}

// loadCall is one in-flight cold read; concurrent Gets for the same user
// wait on done instead of decoding the record again.
type loadCall struct {
	done chan struct{}
	p    *StoredProfile
	err  error
}

// OpenStore opens (creating if needed) a profile store rooted at dir.
// cacheCap bounds the number of decoded profiles kept in memory (<= 0
// means the default 128).
func OpenStore(dir string, cacheCap int) (*Store, error) {
	return OpenStoreWith(dir, cacheCap, segstore.Options{})
}

// OpenStoreWith opens a store with explicit segment-store tuning (segment
// roll size, compaction thresholds, read-only).
func OpenStoreWith(dir string, cacheCap int, opt segstore.Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("service: store needs a directory")
	}
	if cacheCap <= 0 {
		cacheCap = 128
	}
	seg, err := segstore.Open(dir, opt)
	if err != nil {
		return nil, fmt.Errorf("service: open segment store: %w", err)
	}
	s := &Store{
		cap:      cacheCap,
		seg:      seg,
		byKey:    make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*loadCall),
	}
	return s, nil
}

// Put persists a profile and caches it. The profile must carry a valid
// user and a table. The record carries the profile's population prior
// sample as its summary, so prior refits never decode it. The disk write
// runs without the cache lock, so cached reads never stall behind a slow
// device.
func (s *Store) Put(p *StoredProfile) error {
	if p == nil || p.Table == nil {
		return errors.New("service: refusing to store an empty profile")
	}
	if !ValidUser(p.User) {
		return fmt.Errorf("%w: %q", ErrBadUser, p.User)
	}
	summary, err := priorSampleOf(p).MarshalBinary()
	if err != nil {
		return fmt.Errorf("service: summarize profile: %w", err)
	}
	if s.putStall != nil {
		s.putStall()
	}
	if err := s.seg.PutWithSummary(p, summary); err != nil {
		return fmt.Errorf("service: store profile: %w", err)
	}
	s.mu.Lock()
	s.cacheLocked(p)
	s.mu.Unlock()
	return nil
}

// Get returns the profile for a user, from cache when warm, otherwise from
// the segment store. Concurrent cold reads for the same user share one
// decode. It returns ErrProfileNotFound when the user has no profile.
func (s *Store) Get(user string) (*StoredProfile, error) {
	if !ValidUser(user) {
		return nil, fmt.Errorf("%w: %q", ErrBadUser, user)
	}
	s.mu.Lock()
	if el, ok := s.byKey[user]; ok {
		s.order.MoveToFront(el)
		p := el.Value.(*StoredProfile)
		s.mu.Unlock()
		s.hits.Add(1)
		return p, nil
	}
	if c, ok := s.inflight[user]; ok {
		// Another goroutine is already decoding this user: share its result
		// (and its one decode) instead of hitting the segment store again.
		s.mu.Unlock()
		<-c.done
		if c.err == nil {
			s.hits.Add(1)
		}
		return c.p, c.err
	}
	c := &loadCall{done: make(chan struct{})}
	s.inflight[user] = c
	s.mu.Unlock()

	p, err := s.seg.Get(user)
	switch {
	case errors.Is(err, segstore.ErrNotFound):
		s.notFound.Add(1)
		err = fmt.Errorf("%w: %q", ErrProfileNotFound, user)
	case err != nil:
		err = fmt.Errorf("service: read profile %q: %w", user, err)
	case p.Table == nil:
		err = fmt.Errorf("service: profile %q has no table", user)
	default:
		s.misses.Add(1)
	}

	s.mu.Lock()
	delete(s.inflight, user)
	if err == nil {
		s.cacheLocked(p)
	}
	s.mu.Unlock()
	if err != nil {
		p = nil
	}
	c.p, c.err = p, err
	close(c.done)
	return p, err
}

// PriorSamples returns every stored profile's population prior sample, in
// sorted user order, from the summaries the records carry: an index walk
// that decodes no profile and leaves the LRU untouched. A record whose
// summary is not a sample (one written by an older codec) is left out.
func (s *Store) PriorSamples() []prior.Sample {
	users := s.seg.Keys()
	samples := make([]prior.Sample, 0, len(users))
	for _, u := range users {
		summary, ok := s.seg.Summary(u)
		var smp prior.Sample
		if ok && smp.UnmarshalBinary(summary) == nil {
			samples = append(samples, smp)
		}
	}
	return samples
}

// cacheLocked inserts or refreshes a cache entry, evicting from the LRU
// tail past capacity. Caller holds s.mu.
func (s *Store) cacheLocked(p *StoredProfile) {
	if el, ok := s.byKey[p.User]; ok {
		el.Value = p
		s.order.MoveToFront(el)
		return
	}
	s.byKey[p.User] = s.order.PushFront(p)
	for s.order.Len() > s.cap {
		tail := s.order.Back()
		s.order.Remove(tail)
		delete(s.byKey, tail.Value.(*StoredProfile).User)
		s.evictions.Add(1)
	}
}

// Users lists every user with a persisted profile, sorted. It is an
// in-memory index read — no directory scan, no disk I/O.
func (s *Store) Users() ([]string, error) {
	return s.seg.Keys(), nil
}

// Cached returns the number of profiles currently held in memory.
func (s *Store) Cached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Stats reports the cache counters (for /debug/metrics): hits served from
// memory (including reads coalesced onto an in-flight decode), misses that
// decoded a stored record, not-found reads for users with no profile at
// all, and LRU evictions.
func (s *Store) Stats() (hits, misses, notFound, evictions uint64) {
	return s.hits.Load(), s.misses.Load(), s.notFound.Load(), s.evictions.Load()
}

// SegStats exposes the segment store's counters (segments, disk/dead
// bytes, group commits, compactions, recovery report) for metrics and the
// CLI.
func (s *Store) SegStats() segstore.Stats {
	return s.seg.Stats()
}

// Compact synchronously rewrites segments past the dead-bytes threshold.
func (s *Store) Compact() error { return s.seg.Compact() }

// Close flushes and closes the segment store. Cached and stored profiles
// remain readable; writes fail afterwards.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.seg.Close() })
	return s.closeErr
}

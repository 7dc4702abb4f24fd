package service

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/segstore"
)

// TestPutDoesNotBlockCachedReads pins the satellite fix for the old store,
// which held the cache mutex across the whole disk write: a slow device
// stalled every read, cached or not. Now the write runs lock-free, so a
// stalled Put must leave unrelated cached Gets unaffected.
func TestPutDoesNotBlockCachedReads(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(sampleProfile("cached")); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	s.putStall = func() {
		close(entered)
		<-release
	}
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(sampleProfile("slow-writer")) }()
	<-entered // the Put is now mid-"disk write"

	got := make(chan error, 1)
	go func() {
		_, err := s.Get("cached")
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("cached read failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cached read blocked behind an in-flight Put")
	}

	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("stalled put failed: %v", err)
	}
	if _, err := s.Get("slow-writer"); err != nil {
		t.Fatalf("slow-writer profile lost: %v", err)
	}
}

// TestColdReadsShareOneDecode pins the satellite fix for the old store's
// double-decode race: concurrent cold Gets for the same user each read and
// unmarshalled the file. Now they coalesce onto one segment-store decode.
func TestColdReadsShareOneDecode(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(sampleProfile("alice")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Fresh store: cold cache, so every Get would have decoded before.
	s2, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	const readers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	profiles := make([]*StoredProfile, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := s2.Get("alice")
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			profiles[i] = p
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	// The segment store counts every record decode; coalescing means the
	// stampede cost exactly one.
	if gets := s2.SegStats().Gets; gets != 1 {
		t.Fatalf("%d segment-store decodes for %d concurrent cold reads, want 1", gets, readers)
	}
	for i := 1; i < readers; i++ {
		if profiles[i] != profiles[0] {
			t.Fatal("readers got different profile pointers; cache not shared")
		}
	}
	hits, misses, _, _ := s2.Stats()
	if misses != 1 || hits != readers-1 {
		t.Fatalf("counters hits=%d misses=%d, want %d/1", hits, misses, readers-1)
	}
}

// TestStoreUsersIsIndexRead: Users() must not depend on directory contents
// (it is an in-memory index read now) — junk files in the store dir are
// invisible.
func TestStoreUsersIsIndexRead(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(sampleProfile("zed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleProfile("amy")); err != nil {
		t.Fatal(err)
	}
	// Junk that the old ReadDir implementation would have had to filter.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644)
	users, err := s.Users()
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 || users[0] != "amy" || users[1] != "zed" {
		t.Fatalf("Users() = %v, want [amy zed]", users)
	}
}

// TestOpenStoreReadOnlyMissingDir: a read-only store open (uniqctl store
// stat) of a directory that does not exist fails and creates nothing.
func TestOpenStoreReadOnlyMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	if s, err := OpenStoreWith(dir, 1, segstore.Options{ReadOnly: true}); err == nil {
		s.Close()
		t.Fatal("read-only open of a missing directory succeeded")
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read-only open left %s behind (stat: %v)", dir, err)
	}
}

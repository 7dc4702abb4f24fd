package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBodyReaderReads covers the reader's paths: an exact presize from
// Content-Length, a chunked body, a body over the limit, a body shorter
// than it declared, and a budget that is whole again afterwards.
func TestBodyReaderReads(t *testing.T) {
	const limit = 1 << 10
	b := NewBodyReader(limit)
	read := func(body io.Reader, declared int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/", body)
		r.ContentLength = declared
		return b.Read(httptest.NewRecorder(), r)
	}
	payload := strings.Repeat("x", 700)

	got, err := read(strings.NewReader(payload), int64(len(payload)))
	if err != nil || string(got) != payload {
		t.Fatalf("declared body: %d bytes, %v", len(got), err)
	}
	if cap(got) != len(payload) {
		t.Errorf("declared body read into %d bytes of capacity, want exactly %d", cap(got), len(payload))
	}
	if got, err := read(io.MultiReader(strings.NewReader(payload)), -1); err != nil || string(got) != payload {
		t.Fatalf("chunked body: %d bytes, %v", len(got), err)
	}
	var tooBig *http.MaxBytesError
	for _, declared := range []int64{-1, 2 * limit} {
		if _, err := read(strings.NewReader(strings.Repeat("x", 2*limit)), declared); !errors.As(err, &tooBig) {
			t.Errorf("body over the limit, declared %d: error %v, want *http.MaxBytesError", declared, err)
		}
	}
	if _, err := read(strings.NewReader(payload), int64(len(payload))+10); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body shorter than declared: error %v, want io.ErrUnexpectedEOF", err)
	}
	if n := b.reserved.Load(); n != 0 {
		t.Fatalf("%d bytes of the presize budget still reserved after every read returned", n)
	}
}

// TestBodyReaderStalledReadsBoundHeap: k reads that each declare the limit
// and then stall after one byte raise the heap by at most one limit (the
// presize budget) plus 1 MiB; once they end, the budget is whole again.
func TestBodyReaderStalledReadsBoundHeap(t *testing.T) {
	const (
		limit = 16 << 20
		k     = 6
	)
	b := NewBodyReader(limit)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	pipes := make([]*io.PipeWriter, k)
	done := make(chan error, k)
	for i := range pipes {
		pr, pw := io.Pipe()
		pipes[i] = pw
		r := httptest.NewRequest(http.MethodPost, "/", pr)
		r.ContentLength = limit
		go func() {
			_, err := b.Read(httptest.NewRecorder(), r)
			done <- err
		}()
		if _, err := pw.Write([]byte("{")); err != nil {
			t.Fatal(err)
		}
	}
	// Every reader has taken its byte, so each has sized its buffer.
	var peak int64
	for range 5 {
		time.Sleep(10 * time.Millisecond)
		peak = max(peak, heap())
	}
	if rise := peak - base; rise > limit+1<<20 {
		t.Errorf("%d stalled reads declaring %d MiB each raised the heap by %.1f MiB, want at most %d MiB",
			k, limit>>20, float64(rise)/(1<<20), limit>>20+1)
	}
	for _, pw := range pipes {
		pw.CloseWithError(errors.New("client gone"))
	}
	for range k {
		if err := <-done; err == nil {
			t.Error("a stalled read whose client left returned no error")
		}
	}
	if n := b.reserved.Load(); n != 0 {
		t.Fatalf("%d bytes of the presize budget still reserved after the stalled reads ended", n)
	}
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(make([]byte, limit)))
	if got, err := b.Read(httptest.NewRecorder(), r); err != nil || cap(got) != limit {
		t.Fatalf("read after the stall: %d bytes of capacity, %v; want an exact %d", cap(got), err, limit)
	}
}

// TestBodyReaderDecodeJSONRejectsTrailingData: a json.Decoder stops after
// the first value; DecodeJSON accepts trailing whitespace and nothing
// else.
func TestBodyReaderDecodeJSONRejectsTrailingData(t *testing.T) {
	b := NewBodyReader(1 << 10)
	for body, ok := range map[string]bool{
		`{"user":"a"}`:              true,
		"{\"user\":\"a\"}\n\t ":     true,
		`{"user":"a"} {"user":"b"}`: false,
		`{"user":"a"}x`:             false,
	} {
		var req SubmitRequest
		err := b.DecodeJSON(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &req)
		if (err == nil) != ok {
			t.Errorf("%q: error %v, want accepted=%v", body, err, ok)
		}
	}
}

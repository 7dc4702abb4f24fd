package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
)

// BodyReader reads request bodies whole, each under one size limit. A
// body that declares its length is read into one buffer of exactly that
// size, so an ordinary 9 MB session costs one allocation and no copies.
// But a Content-Length is a claim, not bytes: a few stalled requests that
// each declare the limit must not pin that much memory apiece. So the
// exact presize is granted only while the declared lengths of the reads
// in flight fit a budget equal to the limit. Past it, and for bodies of
// unknown length, the buffer grows geometrically with the bytes that
// arrive. uniqd and uniqgw each hold one reader per process.
type BodyReader struct {
	limit    int64
	reserved atomic.Int64 // declared lengths of the presized reads in flight
}

// NewBodyReader returns a reader for bodies of at most limit bytes
// (limit > 0), which is also its presize budget.
func NewBodyReader(limit int64) *BodyReader {
	return &BodyReader{limit: limit}
}

// Read reads r's body whole. A body over the limit fails with an error
// wrapping *http.MaxBytesError, and the server closes the connection
// after the response.
func (b *BodyReader) Read(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, b.limit)
	if n := r.ContentLength; n > 0 && b.reserve(n) {
		defer b.reserved.Add(-n)
		// The server ends the body at its Content-Length.
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reserve claims n bytes of the presize budget, reporting whether they
// fit.
func (b *BodyReader) reserve(n int64) bool {
	for {
		cur := b.reserved.Load()
		if n > b.limit-cur {
			return false
		}
		if b.reserved.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// DecodeJSON reads r's body whole and decodes it into v. Unlike a
// json.Decoder, it rejects anything but whitespace after the value.
func (b *BodyReader) DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := b.Read(w, r)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

package service

import (
	"bytes"
	"testing"
)

// encodeFrame is writeFrame into a fresh byte slice.
func encodeFrame(tb testing.TB, typ byte, payload []byte) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := writeFrame(&b, typ, payload); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadFrame drives arbitrary bytes through the render endpoint's
// frame reader and hands each payload to the decoder the handler uses for
// its type. Nothing may panic, no payload may exceed the frame bound,
// every frame read must re-encode to exactly the bytes it consumed, and
// each decoder must accept precisely the payload shapes it documents.
func FuzzReadFrame(f *testing.F) {
	audio := appendF32LE(nil, []float64{0.5, -0.25, 1})
	seeds := [][]byte{
		encodeFrame(f, frameAudio, audio),
		encodeFrame(f, framePose, encodeF64BE(15)),
		encodeFrame(f, frameSceneAudio, append(appendU16BE(nil, 1), audio...)),
		encodeFrame(f, frameBearing, append(appendU16BE(nil, 0), encodeF64BE(250)...)),
		encodeFrame(f, frameSourceEnd, appendU16BE(nil, 1)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(bytes.Join(seeds, nil))
	// A length prefix past maxFramePayload must be refused before any
	// payload is allocated or read.
	f.Add([]byte{frameAudio, 0xff, 0xff, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var (
			buf  []byte
			mono []float64
		)
		for {
			start := len(data) - r.Len()
			typ, payload, err := readFrame(r, buf)
			if err != nil {
				return
			}
			buf = payload
			if len(payload) > maxFramePayload {
				t.Fatalf("payload %d bytes exceeds the %d-byte bound", len(payload), maxFramePayload)
			}
			if consumed := data[start : len(data)-r.Len()]; !bytes.Equal(consumed, encodeFrame(t, typ, payload)) {
				t.Fatalf("frame %q does not re-encode to the %d bytes it consumed", typ, len(consumed))
			}
			if typ == frameSceneAudio || typ == frameBearing || typ == frameSourceEnd {
				idx, rest, err := splitSourceIndex(payload)
				if (err == nil) != (len(payload) >= 2) {
					t.Fatalf("splitSourceIndex on %d bytes: err %v", len(payload), err)
				}
				if err != nil {
					continue
				}
				if idx < 0 || idx > 0xffff || len(rest) != len(payload)-2 {
					t.Fatalf("splitSourceIndex: index %d, %d bytes left of %d", idx, len(rest), len(payload))
				}
				payload = rest
			}
			switch typ {
			case frameAudio, frameSceneAudio:
				out, err := decodeF32LE(mono, payload)
				if (err == nil) != (len(payload)%4 == 0) {
					t.Fatalf("decodeF32LE on %d bytes: err %v", len(payload), err)
				}
				if err == nil {
					if len(out) != len(payload)/4 {
						t.Fatalf("decodeF32LE: %d samples from %d bytes", len(out), len(payload))
					}
					mono = out
				}
			case framePose, frameBearing:
				v, err := decodeF64BE(payload)
				if (err == nil) != (len(payload) == 8) {
					t.Fatalf("decodeF64BE on %d bytes: err %v", len(payload), err)
				}
				if err == nil && !bytes.Equal(encodeF64BE(v), payload) {
					t.Fatalf("decodeF64BE does not round-trip %x", payload)
				}
			}
		}
	})
}

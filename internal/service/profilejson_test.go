package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"testing"

	"repro/internal/head"
	"repro/internal/hrtf"
)

// smallWriterBytes runs write on a profileWriter whose buffer holds only
// 64 bytes, so nearly every token crosses a flush.
func smallWriterBytes(write func(*profileWriter)) []byte {
	var out bytes.Buffer
	pw := profileWriter{w: &out, buf: make([]byte, 0, 64)}
	write(&pw)
	pw.flush()
	return out.Bytes()
}

// TestWriteProfileJSONCoversEveryField: for each type the profile writer
// spells out, a value with every field set writes exactly the bytes
// encoding/json does. A field added to any of them changes json's bytes
// and fails here instead of quietly vanishing from responses.
func TestWriteProfileJSONCoversEveryField(t *testing.T) {
	params := filled[head.Params]()
	hrir := filled[hrtf.HRIR]()
	table := filled[hrtf.Table]()
	profile := filled[StoredProfile]()
	for _, tc := range []struct {
		name  string
		v     any
		write func(*profileWriter)
	}{
		{"head.Params", params, func(pw *profileWriter) { pw.headParams(params) }},
		{"hrtf.HRIR", hrir, func(pw *profileWriter) { pw.hrir(hrir) }},
		{"hrtf.Table", &table, func(pw *profileWriter) { pw.table(&table) }},
		{"StoredProfile", &profile, func(pw *profileWriter) { pw.profile(&profile) }},
	} {
		want, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := smallWriterBytes(tc.write); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
	var got bytes.Buffer
	if err := WriteProfileJSON(&got, &profile); err != nil {
		t.Fatal(err)
	}
	if want := encoderBytes(t, &profile); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WriteProfileJSON:\n got %s\nwant %s", got.Bytes(), want)
	}
}

func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// chunkRecorder records the size of every Write.
type chunkRecorder struct {
	bytes.Buffer
	writes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// TestWriteProfileJSONStreams: a profile of several megabytes of JSON goes
// out in writes of at most one buffer, and the bytes are the Encoder's.
func TestWriteProfileJSONStreams(t *testing.T) {
	p := sampleProfile("streamer")
	p.Table = syntheticTable(181)
	for i := range p.Table.Far {
		for _, h := range []*[]float64{&p.Table.Far[i].Left, &p.Table.Far[i].Right} {
			for j := range *h {
				(*h)[j] = math.Sin(float64(i*j)) / 7e3 // long decimals and e-notation
			}
		}
	}
	want := encoderBytes(t, p)
	var got chunkRecorder
	if err := WriteProfileJSON(&got, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%d bytes differ from the Encoder's %d", got.Len(), len(want))
	}
	if len(got.writes) < len(want)/profileChunk {
		t.Fatalf("%d bytes in %d writes", len(want), len(got.writes))
	}
	for _, n := range got.writes {
		if n > profileChunk {
			t.Fatalf("a write of %d bytes exceeds the %d-byte buffer", n, profileChunk)
		}
	}
}

// TestProfileNotRepresentableIs500: a stored profile holding a NaN answers
// 500 with a JSON error body, not a 200 with an empty one.
func TestProfileNotRepresentableIs500(t *testing.T) {
	svc, c := newTestServer(t)
	p := sampleProfile("nan")
	p.Table.Far[3].Left[5] = math.NaN()
	if err := svc.Store().Put(p); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var bad *json.UnsupportedValueError
	if err := WriteProfileJSON(&got, p); !errors.As(err, &bad) || got.Len() != 0 {
		t.Fatalf("WriteProfileJSON: %v after %d bytes, want an UnsupportedValueError before any", err, got.Len())
	}
	resp, err := http.Get(c.BaseURL + "/v1/profiles/nan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if resp.StatusCode != http.StatusInternalServerError || json.NewDecoder(resp.Body).Decode(&e) != nil || e.Code != CodeInternal {
		t.Fatalf("status %d, body %+v; want 500 %s", resp.StatusCode, e, CodeInternal)
	}
	if _, err := c.Profile(context.Background(), "nan"); err == nil {
		t.Fatal("client accepted the failed read")
	}
}

// fuzzProfile builds a profile from fuzz bytes: strings of any bytes,
// floats from raw bits, nil and empty slices, and a nil table.
type fuzzProfile struct{ b []byte }

func (f *fuzzProfile) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzProfile) float() float64 {
	var w [8]byte
	f.b = f.b[copy(w[:], f.b):]
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

func (f *fuzzProfile) str() string {
	n := min(int(f.byte()%16), len(f.b))
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// floats returns nil for a 0 length byte and n-1 values otherwise.
func (f *fuzzProfile) floats() []float64 {
	n := int(f.byte() % 6)
	if n == 0 {
		return nil
	}
	x := make([]float64, n-1)
	for i := range x {
		x[i] = f.float()
	}
	return x
}

func (f *fuzzProfile) hrirs() []hrtf.HRIR {
	n := int(f.byte() % 4)
	if n == 0 {
		return nil
	}
	hs := make([]hrtf.HRIR, n-1)
	for i := range hs {
		hs[i] = hrtf.HRIR{Left: f.floats(), Right: f.floats(), SampleRate: f.float()}
	}
	return hs
}

func (f *fuzzProfile) profile() *StoredProfile {
	p := &StoredProfile{User: f.str(), JobID: f.str(), CreatedUnixMS: int64(math.Float64bits(f.float()))}
	p.HeadParams = head.Params{A: f.float(), B: f.float(), C: f.float()}
	p.MeanResidualDeg = f.float()
	flags := f.byte()
	p.GestureOK = flags&1 != 0
	p.GestureReason, p.StopError = f.str(), f.str()
	p.SkippedStops = int(int8(f.byte()))
	if flags&2 != 0 {
		p.Table = &hrtf.Table{SampleRate: f.float(), AngleStep: f.float(), MinAngle: f.float()}
		p.Table.Near, p.Table.Far = f.hrirs(), f.hrirs()
	}
	return p
}

// FuzzProfileJSON: WriteProfileJSON writes exactly json.Encoder's bytes
// for any profile, or both fail and the writer writes nothing.
func FuzzProfileJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05<a&b>\x03\xe2\x80\xa8\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x04user\x00\x01\x02\x03\x04\x05\x06\x07\x08" +
		"\x9a\x99\x99\x99\x99\x99\xb9\x3f\x00\x00\x00\x00\x00\x00\x00\x80" +
		"\xbd\x37\x86\x35\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x50\x44" +
		"\x03\x02\xff\n\x01\"\\\xff\x03\x00\x00\x00\x00\x00\x70\xe7\x40\x00\x00\x00\x00\x00\x00\xf0\x3f" +
		"\x00\x00\x00\x00\x00\x00\x00\x00\x03\x01\x03\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := (&fuzzProfile{b: data}).profile()
		var want, got bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(p)
		err := WriteProfileJSON(&got, p)
		if (err == nil) != (encErr == nil) {
			t.Fatalf("writer error %v, Encoder error %v", err, encErr)
		}
		if err != nil {
			if got.Len() != 0 {
				t.Fatalf("writer failed (%v) after writing %d bytes", err, got.Len())
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("writer:\n%q\nEncoder:\n%q", got.Bytes(), want.Bytes())
		}
	})
}

// TestAppendJSONFloatMatchesStrconv: appendJSONFloat writes every double
// it is given, with either sign, exactly as appendJSONFloatStrconv
// (encoding/json's own code) does: on every power of two and both its
// neighbours, so every binary exponent with its irregular spacing below
// the power; on the first 100,000 positive bit patterns; on the integers
// to 100,000 and their 1e-6 and 1e15 multiples; on both format cutoffs,
// 1e-6 and 1e21, and their neighbours; and on 2,000,000 random bit
// patterns.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(f float64) {
		t.Helper()
		for _, x := range [2]float64{f, -f} {
			got = appendJSONFloat(got[:0], x)
			want = appendJSONFloatStrconv(want[:0], x)
			if !bytes.Equal(got, want) {
				t.Fatalf("%#016x: wrote %s, want %s", math.Float64bits(x), got, want)
			}
		}
	}
	withNeighbours := func(f float64) {
		t.Helper()
		check(math.Nextafter(f, 0))
		check(f)
		check(math.Nextafter(f, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		withNeighbours(math.Ldexp(1, e))
	}
	for u := uint64(1); u <= 100_000; u++ {
		check(math.Float64frombits(u))
	}
	for i := 1; i <= 100_000; i++ {
		check(float64(i))
		check(float64(i) * 1e-6)
		check(float64(i) * 1e15)
	}
	withNeighbours(1e-6)
	withNeighbours(1e21)
	rng := rand.New(rand.NewPCG(23, 1))
	for n := 0; n < 2_000_000; {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
			n++
		}
	}
}

// FuzzJSONFloat: appendJSONFloat writes every finite double, its bits read
// from eight fuzz bytes, exactly as appendJSONFloatStrconv does.
func FuzzJSONFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 5e-324, 8e-323,
		math.Nextafter(0x1p-1022, 0), 0x1p-1022, math.Nextafter(0x1p-1022, 1),
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, 1e22),
		0x1p53 - 1, 0x1p53, math.Nextafter(0x1p53, 0x1p54), math.MaxFloat64,
	} {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x := (&fuzzProfile{b: data}).float()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		if got, want := appendJSONFloat(nil, x), appendJSONFloatStrconv(nil, x); !bytes.Equal(got, want) {
			t.Fatalf("%#016x: wrote %s, want %s", math.Float64bits(x), got, want)
		}
	})
}

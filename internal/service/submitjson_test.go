package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/imu"
	"repro/internal/sim"
)

// fillEvery sets every exported field reachable from v, which must be
// settable, to a non-zero value: slices get two elements and pointers a
// fresh value, and floats, ints and strings count up from *n. It panics on
// a kind it does not know, so a field of a new kind fails the test too.
func fillEvery(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillEvery(v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillEvery(v.Index(0), n)
		fillEvery(v.Index(1), n)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEvery(v.Elem(), n)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fillEvery: no rule for kind " + v.Kind().String())
	}
}

// filled returns a T with every exported field set by fillEvery.
func filled[T any]() T {
	var v T
	n := 0
	fillEvery(reflect.ValueOf(&v).Elem(), &n)
	return v
}

// sameBits reports whether a and b hold the same values: floats by
// Float64bits, and a nil slice differs from an empty one.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	}
	panic("sameBits: no rule for kind " + a.Kind().String())
}

func sameSubmit(a, b *SubmitRequest) bool {
	return sameBits(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

// onePass runs only the one-pass decoder.
func onePass(body []byte, req *SubmitRequest) bool {
	d := submitDecoder{b: body}
	return d.request(req)
}

// TestDecodeSubmitCoversEveryField: a SubmitRequest with every field set,
// as encoding/json writes it, takes the one-pass path and decodes to the
// same value. A field added to any type the body carries puts a key the
// one-pass decoder does not know into this body, and fails here instead
// of quietly sending every real body to the fallback.
func TestDecodeSubmitCoversEveryField(t *testing.T) {
	want := filled[SubmitRequest]()
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got SubmitRequest
	if !onePass(body, &got) {
		t.Fatalf("one-pass decoder rejected %s", body)
	}
	if !sameSubmit(&got, &want) {
		t.Fatalf("one-pass decode of %s differs: %+v", body, got)
	}
}

// TestDecodeSubmitSessionBitExact: a real 37-stop session body (about
// 9 MB) takes the one-pass path and decodes Float64bits-equal to
// json.Unmarshal, and so do nil and empty slices.
func TestDecodeSubmitSessionBitExact(t *testing.T) {
	s, err := sim.RunSession(sim.NewVolunteer(1, 777), sim.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := core.SessionInput{Probe: s.Probe, SampleRate: s.SampleRate, IMU: s.IMU, SystemIR: s.SystemIR, SyncOffset: s.SyncOffset}
	for _, m := range s.Measurements {
		in.Stops = append(in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	edges := in
	edges.Probe, edges.SystemIR, edges.IMU = []float64{}, nil, []imu.Sample{}
	edges.Stops = []core.StopRecording{{Left: nil, Right: []float64{}}, {Time: math.Copysign(0, -1)}}
	for _, in := range []core.SessionInput{in, edges} {
		body, err := json.Marshal(SubmitRequest{User: "user-1", Input: in})
		if err != nil {
			t.Fatal(err)
		}
		var got, want SubmitRequest
		ok, err := DecodeSubmit(body, &got)
		if !ok || err != nil {
			t.Fatalf("%d-byte session: one pass %v, err %v", len(body), ok, err)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameSubmit(&got, &want) {
			t.Fatalf("%d-byte session decodes differently from json.Unmarshal", len(body))
		}
	}
}

// TestDecodeSubmitFallsBack: bodies outside the one-pass shape decode
// through json.Unmarshal, with its result or its error.
func TestDecodeSubmitFallsBack(t *testing.T) {
	for _, body := range []string{
		`{"user":"a\u0062","input":{}}`,                        // escape
		`{"User":"a","input":{}}`,                              // case
		`{"user":"a","user":"b"}`,                              // repeat
		`{"user":"a","extra":1}`,                               // unknown key
		`{"user":"a","input":{"SampleRate":null}}`,             // null scalar
		`{"user":"a","input":{"Probe":[1,null]}}`,              // null element
		"{\"user\":\"\xff\",\"input\":{}}",                     // invalid UTF-8
		`{"user":"a","input":{"SampleRate":1e400}}`,            // out of range
		`{"user":"a","input":{"SampleRate":01}}`,               // bad number
		`{"user":"a","input":{"Probe":[1.]}}`,                  // bad number
		`{"user":"a","input":{"Stops":[{"Left":[1],}]}}`,       // trailing comma
		`{"user":"a"} x`,                                       // trailing data
		`null`, ``, `[]`, `{`, `{"user":"a",}`, `{"user" "a"}`, // not an object
	} {
		var got, want SubmitRequest
		ok, err := DecodeSubmit([]byte(body), &got)
		werr := json.Unmarshal([]byte(body), &want)
		if ok {
			t.Errorf("%s: took the one-pass path", body)
		}
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Errorf("%s: error %v, want json's %v", body, err, werr)
		}
		if err == nil && !sameSubmit(&got, &want) {
			t.Errorf("%s: decoded %+v, want %+v", body, got, want)
		}
	}
	for _, body := range []string{
		" \t\r\n{ \"user\" : \"a\" , \"input\" : { \"Probe\" : [ -0 , 1E+2 , 2.5e-3 ] , \"IMU\" : [ ] } } \n",
		`{}`,
		`{"input":{"Stops":null,"SystemIR":null,"Probe":[5e-324,-1.7976931348623157e308]}}`,
	} {
		var got, want SubmitRequest
		if ok, err := DecodeSubmit([]byte(body), &got); !ok || err != nil {
			t.Errorf("%s: one pass %v, err %v", body, ok, err)
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil || !sameSubmit(&got, &want) {
			t.Errorf("%s: decoded %+v, want %+v (%v)", body, got, want, err)
		}
	}
}

// hostileSubmitBody is an n-byte submit for user (the JSON text between
// its quotes) whose key array repeats elem, e.g. "0," or "{},", and ends
// in last.
func hostileSubmitBody(n int, user, key, elem, last string) []byte {
	head, tail := `{"user":"`+user+`","input":{"`+key+`":[`, last+`]}}`
	reps := (n - len(head) - len(tail)) / len(elem)
	var b bytes.Buffer
	b.Grow(n)
	b.WriteString(head)
	b.Write(bytes.Repeat([]byte(elem), reps))
	b.WriteString(tail)
	return b.Bytes()
}

// TestDecodeSubmitBoundsHostileBodies: an 8 MiB body that is one long
// array may make the decode allocate at most 4 bytes per body byte (one
// float64 per two bytes of array text) plus a constant: a sample array of
// numbers or of bare commas, and a stop or IMU array of empty objects,
// through the one-pass decoder or (the user spelled with an escape) the
// json.Unmarshal fallback. The comma body still gets json's 400, and the
// object bodies, past the session's stop or IMU cap, 400 invalid_session.
func TestDecodeSubmitBoundsHostileBodies(t *testing.T) {
	const size = 8 << 20
	for _, tc := range []struct {
		name, user, key, elem, last string
		wantCode                    string // "" for a body that decodes
	}{
		{"zeros", "a", "Probe", "0,", "0", ""},
		{"commas", "a", "Probe", ",", "0", CodeBadJSON},
		{"stops", "a", "Stops", "{},", "{}", CodeInvalidSession},
		{"imu", "a", "IMU", "{},", "{}", CodeInvalidSession},
		{"stops-fallback", `\u0061`, "Stops", "{},", "{}", CodeInvalidSession},
		{"imu-fallback", `\u0061`, "IMU", "{},", "{}", CodeInvalidSession},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := hostileSubmitBody(size, tc.user, tc.key, tc.elem, tc.last)
			var req SubmitRequest
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := DecodeSubmit(body, &req)
			runtime.ReadMemStats(&after)
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(body))+1<<20; alloc > limit {
				t.Errorf("decode of a %d-byte body allocated %d bytes, want <= %d", len(body), alloc, limit)
			}
			switch tc.wantCode {
			case "":
				if err != nil || 2*len(req.Input.Probe) < len(body)-64 {
					t.Fatalf("decoded %d probe samples, err %v", len(req.Input.Probe), err)
				}
				return
			case CodeBadJSON:
				want := json.Unmarshal(body, new(SubmitRequest))
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("error %v, want json's %v", err, want)
				}
			case CodeInvalidSession:
				if !errors.Is(err, core.ErrInvalidSession) {
					t.Fatalf("error %v, want an invalid session", err)
				}
			}
			_, c := newTestServer(t)
			resp, err := http.Post(c.BaseURL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e apiError
			if resp.StatusCode != http.StatusBadRequest || json.NewDecoder(resp.Body).Decode(&e) != nil || e.Code != tc.wantCode {
				t.Fatalf("status %d, body %+v; want 400 %s", resp.StatusCode, e, tc.wantCode)
			}
		})
	}
}

// TestDecodeSubmitCaps: a session at the stop and IMU caps decodes and
// validates on either path; one more stop or IMU sample is refused as an
// invalid session, by the one-pass decoder as it counts, and by Validate
// after the fallback, whose '{' count only bounds the objects.
func TestDecodeSubmitCaps(t *testing.T) {
	repeat := func(elem string, n int) string { return strings.Repeat(elem+",", n-1) + elem }
	for _, tc := range []struct {
		user        string
		stops, imus int
		ok, onePass bool
	}{
		{"a", core.MaxSessionStops, core.MaxSessionIMUSamples, true, true},
		{"a", core.MaxSessionStops + 1, 1, false, true},
		{"a", 1, core.MaxSessionIMUSamples + 1, false, true},
		{`\u0061`, core.MaxSessionStops, core.MaxSessionIMUSamples, true, false},
		{`\u0061`, core.MaxSessionStops + 1, 1, false, false},
		{`\u0061`, 1, core.MaxSessionIMUSamples + 1, false, false},
	} {
		body := `{"user":"` + tc.user + `","input":{"Probe":[1],"SampleRate":48000,"Stops":[` +
			repeat(`{"Left":[1],"Right":[1]}`, tc.stops) + `],"IMU":[` + repeat("{}", tc.imus) + `]}}`
		var req SubmitRequest
		onePass, err := DecodeSubmit([]byte(body), &req)
		if err == nil {
			err = req.Input.Validate()
		}
		if onePass != tc.onePass || (err == nil) != tc.ok || err != nil && !errors.Is(err, core.ErrInvalidSession) {
			t.Errorf("user %s, %d stops, %d IMU samples: one pass %v, err %v; want one pass %v, ok %v",
				tc.user, tc.stops, tc.imus, onePass, err, tc.onePass, tc.ok)
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/imu"
)

// DecodeSubmit decodes a POST /v1/sessions body into req, which must be
// zero. A body in the shape encoding/json writes is decoded in one pass
// without reflection: known keys in exact case, each at most once;
// strings without escapes; JSON numbers, converted by strconv.ParseFloat
// as json.Unmarshal converts them; null only for slices; whitespace
// wherever JSON allows it and nothing after the object. Any other body
// goes to json.Unmarshal. So an accepted body decodes bit for bit as
// json.Unmarshal would decode it, and a rejected one fails with json's
// error. onePass reports which path decoded the body.
//
// A session's stops and IMU samples are objects, each of which grows by
// tens of bytes in memory, so both paths stop before holding more than
// core.MaxSessionStops or core.MaxSessionIMUSamples of them and fail with
// an error wrapping core.ErrInvalidSession: the one-pass decoder counts
// the elements as it goes, and the fallback refuses a body with more '{'
// bytes than a session at both caps has objects.
func DecodeSubmit(body []byte, req *SubmitRequest) (onePass bool, err error) {
	d := submitDecoder{b: body}
	if d.request(req) {
		return true, nil
	}
	*req = SubmitRequest{}
	if d.err != nil {
		return true, d.err
	}
	if n := bytes.Count(body, []byte{'{'}); n > maxSubmitObjects {
		return false, fmt.Errorf("%w: body has %d '{' bytes, more than the %d objects of a session at the caps (%d stops, %d IMU samples)",
			core.ErrInvalidSession, n, maxSubmitObjects, core.MaxSessionStops, core.MaxSessionIMUSamples)
	}
	return false, json.Unmarshal(body, req)
}

// maxSubmitObjects is the number of JSON objects in a submit at the
// session caps: the request, its session, and one per stop and IMU sample.
const maxSubmitObjects = 2 + core.MaxSessionStops + core.MaxSessionIMUSamples

// The keys the one-pass decoder knows, per object, in exact case.
var (
	requestKeys = []string{"user", "input"}
	sessionKeys = []string{"Probe", "SampleRate", "Stops", "IMU", "SystemIR", "SyncOffset"}
	stopKeys    = []string{"Time", "Left", "Right"}
	imuKeys     = []string{"T", "RateZ"}
)

// submitDecoder walks a submit body. Each method reports false on
// anything outside the shape DecodeSubmit accepts, which sends the body to
// json.Unmarshal, or on an array past its cap, which sets err.
type submitDecoder struct {
	b   []byte
	pos int
	err error // the session cap the body exceeds
}

func (d *submitDecoder) request(req *SubmitRequest) bool {
	ok := d.object(requestKeys, func(key string) bool {
		if key == "user" {
			return d.str(&req.User)
		}
		return d.session(&req.Input)
	})
	d.ws()
	return ok && d.pos == len(d.b)
}

func (d *submitDecoder) session(in *core.SessionInput) bool {
	return d.object(sessionKeys, func(key string) bool {
		switch key {
		case "Probe":
			return d.samples(&in.Probe)
		case "SampleRate":
			return d.number(&in.SampleRate)
		case "Stops":
			return array(d, &in.Stops, 0, core.MaxSessionStops, "measurement stops", d.stop)
		case "IMU":
			return array(d, &in.IMU, 0, core.MaxSessionIMUSamples, "IMU samples", d.imuSample)
		case "SystemIR":
			return d.samples(&in.SystemIR)
		}
		return d.number(&in.SyncOffset)
	})
}

func (d *submitDecoder) stop(s *core.StopRecording) bool {
	return d.object(stopKeys, func(key string) bool {
		switch key {
		case "Time":
			return d.number(&s.Time)
		case "Left":
			return d.samples(&s.Left)
		}
		return d.samples(&s.Right)
	})
}

func (d *submitDecoder) imuSample(s *imu.Sample) bool {
	return d.object(imuKeys, func(key string) bool {
		if key == "T" {
			return d.number(&s.T)
		}
		return d.number(&s.RateZ)
	})
}

// samples decodes an array of numbers, or null, into *dst. The slice is
// presized from the array's own text: one element per comma plus one,
// capped at one float64 per two bytes of text, so a hostile array of bare
// commas costs at most four bytes per body byte before it is rejected.
func (d *submitDecoder) samples(dst *[]float64) bool {
	d.ws()
	n := 0
	if text := d.b[d.pos:]; len(text) > 0 && text[0] == '[' {
		if end := bytes.IndexByte(text, ']'); end > 0 {
			n = min(bytes.Count(text[:end], []byte{','})+1, (end+1)/2)
		}
	}
	return array(d, dst, n, math.MaxInt, "", d.number)
}

// array decodes a JSON array, or null, into *dst one element at a time
// through elem, starting from capacity n. An empty array is an empty,
// non-nil slice and null leaves *dst nil, as in json.Unmarshal. An array
// of more than limit elements (what names them) sets d.err.
func array[T any](d *submitDecoder, dst *[]T, n, limit int, what string, elem func(*T) bool) bool {
	if d.null() {
		return true
	}
	if !d.lit('[') {
		return false
	}
	s := make([]T, 0, n)
	if !d.lit(']') {
		for {
			if len(s) == limit {
				d.err = fmt.Errorf("%w: session has more than %d %s", core.ErrInvalidSession, limit, what)
				return false
			}
			// elem decodes in place: a pointer to a local would move it
			// to the heap, one allocation per element.
			var zero T
			s = append(s, zero)
			if !elem(&s[len(s)-1]) {
				return false
			}
			if d.lit(']') {
				break
			}
			if !d.lit(',') {
				return false
			}
		}
	}
	*dst = s
	return true
}

// object decodes a JSON object whose keys are among keys, each at most
// once, handing each key (as its keys entry) to field to decode the value.
func (d *submitDecoder) object(keys []string, field func(key string) bool) bool {
	if !d.lit('{') {
		return false
	}
	if d.lit('}') {
		return true
	}
	var seen uint
	for {
		raw, ok := d.rawString()
		if !ok || !d.lit(':') {
			return false
		}
		i := 0
		for i < len(keys) && string(raw) != keys[i] {
			i++
		}
		if i == len(keys) || seen&(1<<i) != 0 || !field(keys[i]) {
			return false
		}
		seen |= 1 << i
		if d.lit('}') {
			return true
		}
		if !d.lit(',') {
			return false
		}
	}
}

// str decodes a string value. Its bytes are kept as they are, so they
// must be valid UTF-8 (json.Unmarshal would replace invalid bytes).
func (d *submitDecoder) str(dst *string) bool {
	raw, ok := d.rawString()
	if !ok || !utf8.Valid(raw) {
		return false
	}
	*dst = string(raw)
	return true
}

// rawString reads a string with no escapes and no control characters and
// returns its bytes.
func (d *submitDecoder) rawString() ([]byte, bool) {
	if !d.lit('"') {
		return nil, false
	}
	for i := d.pos; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			raw := d.b[d.pos:i]
			d.pos = i + 1
			return raw, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number decodes a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// A value strconv.ParseFloat rejects (out of range) fails, as it fails
// json.Unmarshal.
func (d *submitDecoder) number(dst *float64) bool {
	d.ws()
	b, i := d.b, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(b[d.pos:i]), 64)
	if err != nil {
		return false
	}
	*dst, d.pos = v, i
	return true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// null consumes a null literal after whitespace.
func (d *submitDecoder) null() bool {
	d.ws()
	if bytes.HasPrefix(d.b[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// lit consumes the byte c after whitespace.
func (d *submitDecoder) lit(c byte) bool {
	d.ws()
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (d *submitDecoder) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

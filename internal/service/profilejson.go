package service

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"

	"repro/internal/head"
	"repro/internal/hrtf"
)

// profileChunk is the size of the one buffer WriteProfileJSON writes
// through: a solved profile, about 2.6 MB of JSON, goes out in ten writes.
const profileChunk = 256 << 10

// WriteProfileJSON writes p to w byte for byte as json.NewEncoder(w).Encode
// would, trailing newline included, without reflection and without
// holding the whole document: the bytes go out through one fixed buffer
// of profileChunk bytes. A profile holding a float that JSON cannot carry
// (NaN or ±Inf) fails with json.Marshal's *json.UnsupportedValueError
// before any byte is written.
func WriteProfileJSON(w io.Writer, p *StoredProfile) error {
	if err := profileFinite(p); err != nil {
		return err
	}
	pw := profileWriter{w: w, buf: make([]byte, 0, profileChunk)}
	pw.profile(p)
	pw.lit("\n")
	pw.flush()
	return pw.err
}

// profileWriter appends JSON to buf and writes buf to w whenever the next
// token might not fit. After a write error it stops writing.
type profileWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// maxFloatLen bounds a float64 in JSON form, sign and separator included.
const maxFloatLen = 32

func (pw *profileWriter) flush() {
	if pw.err == nil && len(pw.buf) > 0 {
		_, pw.err = pw.w.Write(pw.buf)
	}
	pw.buf = pw.buf[:0]
}

// room makes n bytes free in buf, flushing if they are not.
func (pw *profileWriter) room(n int) {
	if cap(pw.buf)-len(pw.buf) < n {
		pw.flush()
	}
}

func (pw *profileWriter) lit(s string) {
	pw.room(len(s))
	pw.buf = append(pw.buf, s...)
}

// str writes key (a literal) and then s as encoding/json quotes it. The
// profile's strings are short; one longer than the buffer grows it.
func (pw *profileWriter) str(key, s string) {
	q, _ := json.Marshal(s) // a string always marshals
	pw.room(len(key) + len(q))
	pw.buf = append(append(pw.buf, key...), q...)
}

// float writes key (a literal) and then f.
func (pw *profileWriter) float(key string, f float64) {
	pw.room(len(key) + maxFloatLen)
	pw.buf = appendJSONFloat(append(pw.buf, key...), f)
}

func (pw *profileWriter) profile(p *StoredProfile) {
	pw.str(`{"user":`, p.User)
	if p.JobID != "" {
		pw.str(`,"jobId":`, p.JobID)
	}
	pw.lit(`,"createdUnixMs":` + strconv.FormatInt(p.CreatedUnixMS, 10) + `,"headParams":`)
	pw.headParams(p.HeadParams)
	pw.float(`,"meanResidualDeg":`, p.MeanResidualDeg)
	pw.lit(`,"gestureOk":` + strconv.FormatBool(p.GestureOK))
	if p.GestureReason != "" {
		pw.str(`,"gestureReason":`, p.GestureReason)
	}
	if p.SkippedStops != 0 {
		pw.lit(`,"skippedStops":` + strconv.Itoa(p.SkippedStops))
	}
	if p.StopError != "" {
		pw.str(`,"stopError":`, p.StopError)
	}
	pw.lit(`,"table":`)
	pw.table(p.Table)
	pw.lit("}")
}

func (pw *profileWriter) headParams(h head.Params) {
	pw.float(`{"A":`, h.A)
	pw.float(`,"B":`, h.B)
	pw.float(`,"C":`, h.C)
	pw.lit("}")
}

func (pw *profileWriter) table(t *hrtf.Table) {
	if t == nil {
		pw.lit("null")
		return
	}
	pw.float(`{"sampleRate":`, t.SampleRate)
	pw.float(`,"angleStep":`, t.AngleStep)
	pw.float(`,"minAngle":`, t.MinAngle)
	pw.lit(`,"near":`)
	pw.hrirs(t.Near)
	pw.lit(`,"far":`)
	pw.hrirs(t.Far)
	pw.lit("}")
}

func (pw *profileWriter) hrirs(hs []hrtf.HRIR) {
	if hs == nil {
		pw.lit("null")
		return
	}
	pw.lit("[")
	for i, h := range hs {
		if i > 0 {
			pw.lit(",")
		}
		pw.hrir(h)
	}
	pw.lit("]")
}

func (pw *profileWriter) hrir(h hrtf.HRIR) {
	pw.lit(`{"left":`)
	pw.samples(h.Left)
	pw.lit(`,"right":`)
	pw.samples(h.Right)
	pw.float(`,"sampleRate":`, h.SampleRate)
	pw.lit("}")
}

func (pw *profileWriter) samples(x []float64) {
	if x == nil {
		pw.lit("null")
		return
	}
	pw.lit("[")
	for i, v := range x {
		pw.room(maxFloatLen)
		if i > 0 {
			pw.buf = append(pw.buf, ',')
		}
		pw.buf = appendJSONFloat(pw.buf, v)
	}
	pw.lit("]")
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest representation that round-trips, in 'e' form below 1e-6
// and from 1e21 in magnitude, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-07 → e-7
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// profileFinite returns json.Marshal's error for the first float of p, in
// document order, that JSON cannot carry.
func profileFinite(p *StoredProfile) error {
	fs := []float64{p.HeadParams.A, p.HeadParams.B, p.HeadParams.C, p.MeanResidualDeg}
	if err := allFinite(fs); err != nil || p.Table == nil {
		return err
	}
	t := p.Table
	if err := allFinite([]float64{t.SampleRate, t.AngleStep, t.MinAngle}); err != nil {
		return err
	}
	for _, hs := range [][]hrtf.HRIR{t.Near, t.Far} {
		for _, h := range hs {
			for _, x := range [][]float64{h.Left, h.Right, {h.SampleRate}} {
				if err := allFinite(x); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func allFinite(x []float64) error {
	for _, f := range x {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

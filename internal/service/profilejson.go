package service

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
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
// Zeros are written directly, normal doubles take their digits from
// shortestDecimal (strconv's digits, in a fraction of its time) and
// subnormals go to appendJSONFloatStrconv.
func appendJSONFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	biasedExp := int(bits >> 52 & 0x7ff)
	frac := bits & (1<<52 - 1)
	switch {
	case biasedExp == 0 && frac == 0:
		return append(b, '0')
	case biasedExp == 0:
		return appendJSONFloatStrconv(b, math.Abs(f))
	}
	m, e := shortestDecimal(biasedExp, frac)
	n := decimalLen(m)
	dp := n + e // |f| = 0.digits × 10^dp
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		b = appendDigits(b, m, n, 1)
		exp, sign := dp-1, "e+" // exp >= 21 when positive
		if exp < 0 {
			exp, sign = -exp, "e-"
		}
		return strconv.AppendInt(append(b, sign...), int64(exp), 10)
	}
	switch {
	case dp <= 0:
		b = append(b, "0."...)
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return appendDigits(b, m, n, n)
	case dp >= n:
		b = appendDigits(b, m, n, n)
		for ; dp > n; dp-- {
			b = append(b, '0')
		}
		return b
	}
	return appendDigits(b, m, n, dp)
}

// appendDigits appends the n decimal digits of m, with a point after the
// first point of them when point < n. The digits are written in place:
// one byte to the right of their final place when there is a point, the
// first point of them then moved left over it.
func appendDigits(b []byte, m uint64, n, point int) []byte {
	if point >= n {
		b = extend(b, n)
		putDigits(b[len(b)-n:], m)
		return b
	}
	b = extend(b, n+1)
	d := b[len(b)-n-1:]
	putDigits(d[1:], m)
	copy(d, d[1:point+1])
	d[point] = '.'
	return b
}

// extend returns b lengthened by n bytes, which the caller overwrites.
func extend(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = slices.Grow(b, n)
	}
	return b[:len(b)+n]
}

// pow10 holds 10^i for every i a uint64 reaches.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen returns the number of decimal digits of m > 0.
func decimalLen(m uint64) int {
	n := bits.Len64(m) * 1233 >> 12 // ⌊log₁₀ 2^len⌋, at most one too high
	if m < pow10[n] {
		return n
	}
	return n + 1
}

// digitPairs holds "00" to "99", so that integers are written two digits
// per division.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// putDigits writes the low len(d) decimal digits of m into d. Eight digits
// at a time are split off and written as two independent halves, so the
// divisions do not queue one behind another.
func putDigits(d []byte, m uint64) {
	i := len(d)
	for ; i >= 8; i -= 8 {
		x := uint32(m % 1e8)
		m /= 1e8
		hi, lo := x/1e4, x%1e4
		a, b, c, e := hi/100*2, hi%100*2, lo/100*2, lo%100*2
		w := d[i-8 : i]
		w[0], w[1], w[2], w[3] = digitPairs[a], digitPairs[a+1], digitPairs[b], digitPairs[b+1]
		w[4], w[5], w[6], w[7] = digitPairs[c], digitPairs[c+1], digitPairs[e], digitPairs[e+1]
	}
	x := uint32(m)
	for ; i >= 2; i -= 2 {
		j := x % 100 * 2
		x /= 100
		d[i-2], d[i-1] = digitPairs[j], digitPairs[j+1]
	}
	if i == 1 {
		d[0] = byte(x%10) + '0'
	}
}

// appendJSONFloatStrconv is appendJSONFloat over strconv.AppendFloat:
// encoding/json's own code. appendJSONFloat uses it for subnormals, and
// the tests hold appendJSONFloat to it.
func appendJSONFloatStrconv(b []byte, f float64) []byte {
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

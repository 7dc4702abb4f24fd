package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/hrtf"
)

// Payload codec identity: every profile payload starts with this magic and
// a format version. The summary is an opaque, length-prefixed byte string
// between the version and the profile body, which the store keeps in its
// index (see Store.Summary) so a reader can learn what it needs about a
// profile without decoding the body. Any other version is refused.
//
//	magic u32 │ version u16 = 2 │ summary (uvarint length + bytes) │ body
const (
	payloadMagic   uint32 = 0x46505155 // "UQPF" little-endian
	payloadVersion uint16 = 2
)

// maxSummaryLen bounds a payload summary: the index holds every live
// record's summary in memory, so it must stay a few floats, not a table.
const maxSummaryLen = 4096

// profile payload flag bits.
const (
	flagGestureOK = 1 << iota
	flagGestureReason
	flagStopError
	flagTable
)

// HRIR entry flag bits.
const hrirOwnRate = 1 // sample rate differs from the table's

// maxAngles bounds decoded table sizes so a corrupt length cannot ask for
// gigabytes; real tables are a few hundred entries.
const maxAngles = 1 << 20

var errShortPayload = errors.New("segstore: truncated profile payload")

// byteReader walks an in-memory payload.
type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.b) {
		return nil, errShortPayload
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

func (r *byteReader) u8() (byte, error) {
	v, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func (r *byteReader) u16() (uint16, error) {
	v, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(v), nil
}

func (r *byteReader) u32() (uint32, error) {
	v, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(v), nil
}

func (r *byteReader) f64() (float64, error) {
	v, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(v)), nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, errShortPayload
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, errShortPayload
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.pos) {
		return "", errShortPayload
	}
	v, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(v), nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// EncodeProfile serializes a profile into the versioned binary payload
// with an empty summary. Every float travels as its exact IEEE-754 bits
// (raw or losslessly XOR-compressed), so DecodeProfile round-trips
// bit-identically.
func EncodeProfile(p *Profile) ([]byte, error) { return encodePayload(p, nil) }

// encodePayload serializes a profile behind the given summary.
func encodePayload(p *Profile, summary []byte) ([]byte, error) {
	if p == nil {
		return nil, errors.New("segstore: nil profile")
	}
	if len(summary) > maxSummaryLen {
		return nil, fmt.Errorf("segstore: summary of %d bytes exceeds %d", len(summary), maxSummaryLen)
	}
	size, maxTaps := payloadBound(p, len(summary))
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint32(b, payloadMagic)
	b = binary.LittleEndian.AppendUint16(b, payloadVersion)
	b = binary.AppendUvarint(b, uint64(len(summary)))
	b = append(b, summary...)
	b = appendStr(b, p.User)
	b = appendStr(b, p.JobID)
	b = binary.AppendVarint(b, p.CreatedUnixMS)
	b = appendF64(b, p.HeadParams.A)
	b = appendF64(b, p.HeadParams.B)
	b = appendF64(b, p.HeadParams.C)
	b = appendF64(b, p.MeanResidualDeg)
	b = binary.AppendUvarint(b, uint64(p.SkippedStops))
	var flags byte
	if p.GestureOK {
		flags |= flagGestureOK
	}
	if p.GestureReason != "" {
		flags |= flagGestureReason
	}
	if p.StopError != "" {
		flags |= flagStopError
	}
	if p.Table != nil {
		flags |= flagTable
	}
	b = append(b, flags)
	if p.GestureReason != "" {
		b = appendStr(b, p.GestureReason)
	}
	if p.StopError != "" {
		b = appendStr(b, p.StopError)
	}
	if p.Table != nil {
		// Every XOR tap block is built in this one scratch buffer.
		b = appendTable(b, p.Table, make([]byte, 0, xorBound(maxTaps)))
	}
	return b, nil
}

// payloadBound returns an upper bound on the size of p's payload behind
// a summary of summaryLen bytes, with every varint at its widest and
// each tap block at its raw size plus the widest XOR length prefix (an
// XOR block is kept only when it is shorter than the raw one), and the
// length of p's longest tap block.
func payloadBound(p *Profile, summaryLen int) (size, maxTaps int) {
	const v = binary.MaxVarintLen64
	// Magic, version, summary; four strings; time, four floats, skipped
	// stops and flags.
	size = 4 + 2 + v + summaryLen +
		4*v + len(p.User) + len(p.JobID) + len(p.GestureReason) + len(p.StopError) +
		v + 4*8 + v + 1
	if t := p.Table; t != nil {
		size += 3*8 + 2*v
		for _, hs := range [][]hrtf.HRIR{t.Near, t.Far} {
			for _, h := range hs {
				// Flag, two length deltas, the entry's own rate, two blocks.
				size += 1 + 2*v + 8 + 2*(1+v) + 8*(len(h.Left)+len(h.Right))
				maxTaps = max(maxTaps, len(h.Left), len(h.Right))
			}
		}
	}
	return size, maxTaps
}

// appendTable serializes a lookup table: fixed geometry, then per-angle
// HRIR metadata with delta-encoded tap lengths, then the tap blocks,
// XOR-encoded in scratch (see appendTapBlock).
func appendTable(b []byte, t *hrtf.Table, scratch []byte) []byte {
	b = appendF64(b, t.SampleRate)
	b = appendF64(b, t.AngleStep)
	b = appendF64(b, t.MinAngle)
	b = binary.AppendUvarint(b, uint64(len(t.Near)))
	b = binary.AppendUvarint(b, uint64(len(t.Far)))
	b = appendHRIRs(b, t.Near, t.SampleRate, scratch)
	b = appendHRIRs(b, t.Far, t.SampleRate, scratch)
	return b
}

// appendHRIRs writes one field's HRIR list. Tap lengths are delta-encoded
// against the previous angle (neighbouring entries almost always share a
// length, so the deltas are single zero bytes); each entry's sample rate
// is stored only when it differs from the table's.
func appendHRIRs(b []byte, hs []hrtf.HRIR, tableRate float64, scratch []byte) []byte {
	prevL, prevR := 0, 0
	for _, h := range hs {
		var hf byte
		if h.SampleRate != tableRate {
			hf |= hrirOwnRate
		}
		b = append(b, hf)
		b = binary.AppendVarint(b, int64(len(h.Left)-prevL))
		b = binary.AppendVarint(b, int64(len(h.Right)-prevR))
		prevL, prevR = len(h.Left), len(h.Right)
		if hf&hrirOwnRate != 0 {
			b = appendF64(b, h.SampleRate)
		}
		b = appendTapBlock(b, scratch, h.Left)
		b = appendTapBlock(b, scratch, h.Right)
	}
	return b
}

// readPayloadHeader checks a payload's magic and version and returns its
// summary, leaving r at the start of the body. The summary aliases the
// payload.
func readPayloadHeader(r *byteReader) ([]byte, error) {
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != payloadMagic {
		return nil, fmt.Errorf("segstore: bad payload magic %#x", magic)
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version != payloadVersion {
		return nil, fmt.Errorf("segstore: unsupported payload version %d", version)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSummaryLen {
		return nil, fmt.Errorf("segstore: payload summary of %d bytes exceeds %d", n, maxSummaryLen)
	}
	return r.take(int(n))
}

// payloadSummary returns the summary of a profile payload without decoding
// its body: nil for an empty summary or a payload whose header does not
// parse (DecodeProfile reports that one).
func payloadSummary(payload []byte) []byte {
	sum, err := readPayloadHeader(&byteReader{b: payload})
	if err != nil || len(sum) == 0 {
		return nil
	}
	return sum
}

// DecodeProfile parses a payload written by EncodeProfile, skipping its
// summary.
func DecodeProfile(payload []byte) (*Profile, error) {
	r := &byteReader{b: payload}
	if _, err := readPayloadHeader(r); err != nil {
		return nil, err
	}
	p := &Profile{}
	var err error
	if p.User, err = r.str(); err != nil {
		return nil, err
	}
	if p.JobID, err = r.str(); err != nil {
		return nil, err
	}
	if p.CreatedUnixMS, err = r.varint(); err != nil {
		return nil, err
	}
	if p.HeadParams.A, err = r.f64(); err != nil {
		return nil, err
	}
	if p.HeadParams.B, err = r.f64(); err != nil {
		return nil, err
	}
	if p.HeadParams.C, err = r.f64(); err != nil {
		return nil, err
	}
	if p.MeanResidualDeg, err = r.f64(); err != nil {
		return nil, err
	}
	skipped, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if skipped > math.MaxInt32 {
		return nil, fmt.Errorf("segstore: implausible skipped-stop count %d", skipped)
	}
	p.SkippedStops = int(skipped)
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	p.GestureOK = flags&flagGestureOK != 0
	if flags&flagGestureReason != 0 {
		if p.GestureReason, err = r.str(); err != nil {
			return nil, err
		}
	}
	if flags&flagStopError != 0 {
		if p.StopError, err = r.str(); err != nil {
			return nil, err
		}
	}
	if flags&flagTable != 0 {
		if p.Table, err = readTable(r); err != nil {
			return nil, err
		}
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("segstore: %d trailing bytes after profile payload", len(r.b)-r.pos)
	}
	return p, nil
}

func readTable(r *byteReader) (*hrtf.Table, error) {
	t := &hrtf.Table{}
	var err error
	if t.SampleRate, err = r.f64(); err != nil {
		return nil, err
	}
	if t.AngleStep, err = r.f64(); err != nil {
		return nil, err
	}
	if t.MinAngle, err = r.f64(); err != nil {
		return nil, err
	}
	nNear, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nFar, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each angle entry costs at least 3 bytes (flag + two length deltas),
	// so an angle count beyond remaining/3 is corrupt — reject it before
	// allocating the HRIR slices.
	remaining := uint64(len(r.b) - r.pos)
	if nNear > maxAngles || nFar > maxAngles || nNear+nFar > remaining/3+1 {
		return nil, fmt.Errorf("segstore: implausible table size %d/%d angles", nNear, nFar)
	}
	if t.Near, err = readHRIRs(r, int(nNear), t.SampleRate); err != nil {
		return nil, err
	}
	if t.Far, err = readHRIRs(r, int(nFar), t.SampleRate); err != nil {
		return nil, err
	}
	return t, nil
}

func readHRIRs(r *byteReader, n int, tableRate float64) ([]hrtf.HRIR, error) {
	hs := make([]hrtf.HRIR, n)
	prevL, prevR := int64(0), int64(0)
	for i := range hs {
		hf, err := r.u8()
		if err != nil {
			return nil, err
		}
		dL, err := r.varint()
		if err != nil {
			return nil, err
		}
		dR, err := r.varint()
		if err != nil {
			return nil, err
		}
		prevL += dL
		prevR += dR
		// A tap array longer than the remaining payload is corrupt; the
		// 8-bytes-per-tap floor makes the bound tight for the raw method and
		// conservative for XOR.
		if prevL < 0 || prevR < 0 || prevL+prevR > int64(len(r.b)) {
			return nil, fmt.Errorf("segstore: implausible tap lengths %d/%d", prevL, prevR)
		}
		rate := tableRate
		if hf&hrirOwnRate != 0 {
			if rate, err = r.f64(); err != nil {
				return nil, err
			}
		}
		hs[i].SampleRate = rate
		if hs[i].Left, err = r.readTapBlock(int(prevL)); err != nil {
			return nil, err
		}
		if hs[i].Right, err = r.readTapBlock(int(prevR)); err != nil {
			return nil, err
		}
	}
	return hs, nil
}

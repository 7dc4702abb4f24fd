package segstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Segment file identity.
const (
	segHeaderSize        = 16
	segVersion    uint16 = 1
)

// segMagic opens every segment file.
var segMagic = [8]byte{'U', 'Q', 'S', 'E', 'G', 0, 0, 1}

// Record framing.
const (
	recMagic uint32 = 0x31525155 // "UQR1" little-endian

	// kindProfile is the kind byte of every record the store writes.
	kindProfile byte = 1

	// maxKeyLen bounds record keys; service user ids are <= 64 bytes.
	maxKeyLen = 4096
	// maxPayloadLen bounds a single record; a dense 181-angle float64
	// table is ~1.5 MB, so 256 MB is far beyond any real profile.
	maxPayloadLen = 256 << 20
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// chainSeed starts each segment's hash chain (the FNV-1a 64 offset basis).
const chainSeed uint64 = 14695981039346656037

// chainStep folds one record's CRC into the running chain hash.
func chainStep(prev uint64, crc uint32) uint64 {
	h := prev
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(crc >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

// segFileHeader renders the 16-byte segment header.
func segFileHeader() []byte {
	b := make([]byte, segHeaderSize)
	copy(b, segMagic[:])
	binary.LittleEndian.PutUint16(b[8:], segVersion)
	return b
}

func checkSegHeader(b []byte) error {
	if len(b) < segHeaderSize {
		return fmt.Errorf("segstore: segment header truncated (%d bytes)", len(b))
	}
	if [8]byte(b[:8]) != segMagic {
		return errors.New("segstore: bad segment magic")
	}
	if v := binary.LittleEndian.Uint16(b[8:]); v != segVersion {
		return fmt.Errorf("segstore: unsupported segment version %d", v)
	}
	return nil
}

// appendRecordBytes frames one profile record: header fields, CRC over
// them, and the chain word derived from the previous chain state. It
// returns the framed bytes and the new chain state.
func appendRecordBytes(dst []byte, lsn uint64, key string, payload []byte, prevChain uint64) ([]byte, uint64) {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, recMagic)
	dst = append(dst, kindProfile)
	dst = binary.AppendUvarint(dst, lsn)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	chain := chainStep(prevChain, crc)
	dst = binary.LittleEndian.AppendUint64(dst, chain)
	return dst, chain
}

// record is one framed record as seen by the scanner or a point read. Its
// kind byte is not kept: every record is a profile record.
type record struct {
	lsn     uint64
	key     string
	payload []byte
	crc     uint32
}

// parseRecordBytes parses a complete framed record from buf (as read back
// by Get via the index, so the length is already known). It verifies the
// CRC but not the chain — chain verification needs sequential context and
// happens in scanSegment.
func parseRecordBytes(buf []byte) (record, error) {
	var rec record
	r := &byteReader{b: buf}
	magic, err := r.u32()
	if err != nil {
		return rec, err
	}
	if magic != recMagic {
		return rec, fmt.Errorf("segstore: bad record magic %#x", magic)
	}
	if _, err = r.u8(); err != nil { // kind
		return rec, err
	}
	if rec.lsn, err = r.uvarint(); err != nil {
		return rec, err
	}
	if rec.key, err = r.str(); err != nil {
		return rec, err
	}
	n, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	if n > maxPayloadLen {
		return rec, fmt.Errorf("segstore: record payload %d exceeds limit", n)
	}
	if rec.payload, err = r.take(int(n)); err != nil {
		return rec, err
	}
	crcEnd := r.pos
	if rec.crc, err = r.u32(); err != nil {
		return rec, err
	}
	if got := crc32.Checksum(buf[:crcEnd], crcTable); got != rec.crc {
		return rec, fmt.Errorf("segstore: record CRC mismatch (%#x vs %#x)", got, rec.crc)
	}
	if _, err = r.take(8); err != nil { // chain word
		return rec, err
	}
	if r.pos != len(buf) {
		return rec, fmt.Errorf("segstore: %d trailing bytes after record", len(buf)-r.pos)
	}
	return rec, nil
}

// scanResult summarizes one segment scan.
type scanResult struct {
	// goodEnd is the byte offset just past the last verified record.
	goodEnd int64
	// chain is the chain state after the last verified record.
	chain uint64
	// maxLSN is the highest sequence number seen.
	maxLSN uint64
	// damage is nil for a clean segment; otherwise it describes the first
	// corruption (everything from goodEnd on is unreadable).
	damage error
}

// scanBufSize is the scanner's read-ahead. Record headers are read from
// it; a payload larger than it is read straight into the record buffer.
const scanBufSize = 64 << 10

// scanSegment sequentially verifies a segment body (r holds the bytes after
// the header) and calls fn for each valid record with its offset and
// framed size. rec.payload aliases a buffer the next record reuses: fn must
// copy whatever it keeps. Scanning stops at the first damaged record: a
// torn tail from a crash, a flipped bit, or a chain break from stale
// blocks.
func scanSegment(r *io.SectionReader, startOffset int64, fn func(rec record, off, size int64) error) (scanResult, error) {
	res := scanResult{goodEnd: startOffset, chain: chainSeed}
	sc := recordScanner{br: bufio.NewReaderSize(r, scanBufSize), left: r.Size()}
	for {
		// Peek first: a clean EOF here is the normal end.
		if _, err := sc.br.Peek(1); err == io.EOF {
			return res, nil
		}
		// From here on any failure — including EOF mid-record — is a torn
		// tail to report, not a clean end.
		rec, chain, err := sc.next(res.chain)
		if err != nil {
			res.damage = err
			return res, nil
		}
		size := int64(len(sc.buf))
		if err := fn(rec, res.goodEnd, size); err != nil {
			return res, err
		}
		res.goodEnd += size
		res.chain = chain
		if rec.lsn > res.maxLSN {
			res.maxLSN = rec.lsn
		}
	}
}

// recordScanner reads framed records in order from a segment body into one
// reused buffer. Every read is bounded by the bytes the body still holds,
// so a length field claiming more than the file has fails as a torn tail
// before anything is allocated for it.
type recordScanner struct {
	br   *bufio.Reader
	left int64  // body bytes not yet read
	buf  []byte // the current record's framed bytes
}

// read appends the body's next n bytes to sc.buf.
func (sc *recordScanner) read(n uint64) error {
	if n > uint64(sc.left) {
		return fmt.Errorf("segstore: record truncated: %d bytes wanted, %d left: %w", n, sc.left, io.ErrUnexpectedEOF)
	}
	start := len(sc.buf)
	sc.buf = slices.Grow(sc.buf, int(n))[:start+int(n)]
	got, err := io.ReadFull(sc.br, sc.buf[start:])
	sc.left -= int64(got)
	if err != nil {
		sc.buf = sc.buf[:start+got]
		return fmt.Errorf("segstore: record truncated: %w", err)
	}
	return nil
}

// uvarint reads one uvarint field.
func (sc *recordScanner) uvarint() (uint64, error) {
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift >= 64 {
			return 0, errors.New("segstore: varint overflow")
		}
		if err := sc.read(1); err != nil {
			return 0, err
		}
		c := sc.buf[len(sc.buf)-1]
		v |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return v, nil
		}
	}
}

// next reads and verifies one record, leaving its framed bytes in sc.buf.
// It returns the record, whose payload aliases sc.buf, and the chain state
// after it.
func (sc *recordScanner) next(prevChain uint64) (record, uint64, error) {
	var rec record
	sc.buf = sc.buf[:0]
	if err := sc.read(4); err != nil {
		return rec, 0, err
	}
	if got := binary.LittleEndian.Uint32(sc.buf); got != recMagic {
		return rec, 0, fmt.Errorf("segstore: bad record magic %#x", got)
	}
	if err := sc.read(1); err != nil { // kind
		return rec, 0, err
	}
	var err error
	if rec.lsn, err = sc.uvarint(); err != nil {
		return rec, 0, err
	}
	keyLen, err := sc.uvarint()
	if err != nil {
		return rec, 0, err
	}
	if keyLen > maxKeyLen {
		return rec, 0, fmt.Errorf("segstore: record key length %d exceeds limit", keyLen)
	}
	if err := sc.read(keyLen); err != nil {
		return rec, 0, err
	}
	rec.key = string(sc.buf[len(sc.buf)-int(keyLen):])
	payloadLen, err := sc.uvarint()
	if err != nil {
		return rec, 0, err
	}
	if payloadLen > maxPayloadLen {
		return rec, 0, fmt.Errorf("segstore: record payload length %d exceeds limit", payloadLen)
	}
	if err := sc.read(payloadLen); err != nil {
		return rec, 0, err
	}
	crcEnd := len(sc.buf)
	rec.payload = sc.buf[crcEnd-int(payloadLen) : crcEnd]
	if err := sc.read(4); err != nil {
		return rec, 0, err
	}
	rec.crc = binary.LittleEndian.Uint32(sc.buf[crcEnd:])
	if got := crc32.Checksum(sc.buf[:crcEnd], crcTable); got != rec.crc {
		return rec, 0, fmt.Errorf("segstore: record CRC mismatch (%#x vs %#x)", got, rec.crc)
	}
	if err := sc.read(8); err != nil {
		return rec, 0, err
	}
	wantChain := chainStep(prevChain, rec.crc)
	if got := binary.LittleEndian.Uint64(sc.buf[crcEnd+4:]); got != wantChain {
		return rec, 0, fmt.Errorf("segstore: record chain mismatch (%#x vs %#x)", got, wantChain)
	}
	return rec, wantChain, nil
}

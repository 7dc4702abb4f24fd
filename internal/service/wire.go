package service

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The streaming endpoints speak a length-prefixed binary frame protocol in
// both directions:
//
//	[1 byte type][4 bytes big-endian payload length][payload]
//
// Frame types:
//
//	'a' — audio: float32 little-endian samples. Mono on the render
//	      request side; interleaved stereo (L,R,L,R,…) on the render
//	      response side and the AoA request side.
//	'p' — pose: one float64 big-endian, the head yaw in degrees
//	      (render requests only).
//
// Render sessions also take three per-source frame types, each prefixed
// with a 2-byte big-endian source index (a ?scene= description lays out
// the sources; a ?source= session has source 0 only):
//
//	's' — scene audio: [2 bytes index][float32 LE mono samples].
//	'b' — bearing:     [2 bytes index][float64 BE degrees], moves that
//	      source's world-frame bearing (its image geometry follows).
//	'e' — end:         [2 bytes index], no payload beyond the index;
//	      flushes that source while the rest keep streaming.
//
// On a scene session 'a' frames keep their single-source meaning as audio
// for source 0 and 'p' frames steer the shared listener yaw, so
// single-source clients work unchanged against scene sessions. Unknown
// frame types are skipped by the server (forward compatibility), which is
// also why scene frames relay through older gateways untouched. AoA
// responses are not framed: they are newline-delimited JSON
// (stream.AngleEvent per line), which terminal tooling can consume
// directly.
const (
	frameAudio      byte = 'a'
	framePose       byte = 'p'
	frameSceneAudio byte = 's'
	frameBearing    byte = 'b'
	frameSourceEnd  byte = 'e'
)

// appendU16BE appends a big-endian source index.
func appendU16BE(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

// splitSourceIndex strips the 2-byte big-endian source index off a scene
// frame payload.
func splitSourceIndex(payload []byte) (idx int, rest []byte, err error) {
	if len(payload) < 2 {
		return 0, nil, fmt.Errorf("service: scene frame payload %d bytes, need a 2-byte source index", len(payload))
	}
	return int(binary.BigEndian.Uint16(payload)), payload[2:], nil
}

// maxFramePayload bounds one frame's payload (1 MiB ≈ 2.7 s of stereo
// float32 at 48 kHz), keeping a malicious length prefix from ballooning a
// single allocation. Streams are unbounded in total length by design.
const maxFramePayload = 1 << 20

const frameHeaderLen = 5

// writeFrame emits one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("service: frame payload %d exceeds %d bytes", len(payload), maxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it is large enough. A clean
// end of stream between frames returns io.EOF; a truncated frame returns
// io.ErrUnexpectedEOF.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("service: frame payload %d exceeds %d bytes", n, maxFramePayload)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// appendF32LE appends samples as float32 little-endian bytes.
func appendF32LE(dst []byte, x []float64) []byte {
	for _, v := range x {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

// appendF32LEStereo appends two channels interleaved (L,R,L,R,…).
func appendF32LEStereo(dst []byte, l, r []float64) []byte {
	for i := range l {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(l[i])))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(r[i])))
	}
	return dst
}

// decodeF32LE decodes float32 little-endian bytes into dst (reused when
// large enough), returning the decoded samples.
func decodeF32LE(dst []float64, payload []byte) ([]float64, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("service: audio payload length %d not a multiple of 4", len(payload))
	}
	n := len(payload) / 4
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
	}
	return dst, nil
}

// decodeF32LEStereo decodes interleaved stereo float32 bytes into two
// channels.
func decodeF32LEStereo(l, r []float64, payload []byte) (outL, outR []float64, err error) {
	if len(payload)%8 != 0 {
		return nil, nil, fmt.Errorf("service: stereo payload length %d not a multiple of 8", len(payload))
	}
	n := len(payload) / 8
	if cap(l) < n {
		l = make([]float64, n)
	}
	if cap(r) < n {
		r = make([]float64, n)
	}
	l, r = l[:n], r[:n]
	for i := 0; i < n; i++ {
		l[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[8*i:])))
		r[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[8*i+4:])))
	}
	return l, r, nil
}

// encodeF64BE / decodeF64BE carry a single float64 (pose and bearing
// frames). Angles must be finite, so decodeF64BE rejects NaN and ±Inf.
func encodeF64BE(v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func decodeF64BE(payload []byte) (float64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("service: pose payload must be 8 bytes, got %d", len(payload))
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(payload))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("service: angle %g is not finite", v)
	}
	return v, nil
}

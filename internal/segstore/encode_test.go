package segstore

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hrtf"
	"repro/internal/sim"
)

// solvedPayloadSHA256 is the SHA-256 of EncodeProfile's payload for the
// profile TestEncodeProfileSolvedTablePinned builds, as the encoder wrote
// it when it still grew its output and a fresh buffer per XOR block.
const solvedPayloadSHA256 = "340a09e044da22fde546cada7a1fbed097c8283af8b0d1036b746a78d2732370"

// TestEncodeProfileSolvedTablePinned: the payload of a real solved table
// (volunteer (1, 777), 181 angles, 0.93 MB) keeps every byte.
func TestEncodeProfileSolvedTablePinned(t *testing.T) {
	s, err := sim.RunSession(sim.NewVolunteer(1, 777), sim.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := core.SessionInput{Probe: s.Probe, SampleRate: s.SampleRate, IMU: s.IMU, SystemIR: s.SystemIR, SyncOffset: s.SyncOffset}
	for _, m := range s.Measurements {
		in.Stops = append(in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	res, err := core.Personalize(in, core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeProfile(&Profile{
		User: "volunteer-1", JobID: "0123456789abcdef", CreatedUnixMS: 1700000000000,
		HeadParams: res.HeadParams, MeanResidualDeg: res.MeanResidualDeg,
		GestureOK: res.Gesture.OK, GestureReason: res.Gesture.Reason, Table: res.Table,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != solvedPayloadSHA256 {
		t.Fatalf("%d-byte payload hashes to %x, want %s", len(b), sum, solvedPayloadSHA256)
	}
}

// TestEncodeProfileAllocs: EncodeProfile allocates its payload once and
// one XOR scratch buffer, whether the XOR form wins (smooth taps) or loses
// to raw (noise, and every tap a new window), and tap blocks of uneven
// lengths fit the bound too.
func TestEncodeProfileAllocs(t *testing.T) {
	noise := testProfile("noise", 181, 170, 5)
	rng := rand.New(rand.NewSource(5))
	for _, hs := range [][]hrtf.HRIR{noise.Table.Near, noise.Table.Far} {
		for i := range hs {
			for j := range hs[i].Left {
				hs[i].Left[j] = math.Float64frombits(rng.Uint64())
			}
			hs[i].Right = hs[i].Right[:i%170]
			hs[i].SampleRate = 44100
		}
	}
	for _, p := range []*Profile{testProfile("smooth", 181, 170, 3), noise} {
		want, err := EncodeProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() { _, _ = EncodeProfile(p) }); n > 3 {
			t.Errorf("%s: EncodeProfile made %.0f allocations, want <= 3", p.User, n)
		}
		got, err := DecodeProfile(want)
		if err != nil {
			t.Fatal(err)
		}
		profilesBitsEqual(t, got, p)
	}
}

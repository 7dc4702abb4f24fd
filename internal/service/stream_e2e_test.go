package service

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/render"
	"repro/internal/room"
	"repro/internal/sim"
	"repro/internal/stream"
)

// newStreamTestServer seeds a profile straight into the store (no solve)
// and serves it, so the streaming endpoints run against ground-truth
// tables in milliseconds.
func newStreamTestServer(t *testing.T) (*Service, *Client) {
	t.Helper()
	svc, err := New(Config{StoreDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Store().Put(&StoredProfile{User: "vol1", Table: tab}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, NewClient(ts.URL)
}

// quantizeF32 rounds samples to float32 precision, matching what the
// binary wire format will deliver to the server.
func quantizeF32(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(float32(v))
	}
	return out
}

func TestStreamRenderEndpointMatchesBatch(t *testing.T) {
	_, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Quantize the input up front: both paths then render the identical
	// signal, and only the response encoding differs (float32 frames vs
	// float64 JSON).
	mono := quantizeF32(dsp.WhiteNoise(9600, rand.New(rand.NewSource(7))))

	// Batch reference at 60°.
	batch, err := client.Render(ctx, "vol1", RenderRequest{Mono: mono, AngleDeg: 60})
	if err != nil {
		t.Fatal(err)
	}

	// Streaming: source at 75° world frame, head yawed 15° — the session
	// renders at the same relative 60°, exercising the pose frame type.
	gotL, gotR := streamRenderAt(ctx, t, client, 75, 15, mono)

	if len(gotL) != len(batch.Left) || len(gotR) != len(batch.Right) {
		t.Fatalf("stream lengths %d/%d, batch %d/%d",
			len(gotL), len(gotR), len(batch.Left), len(batch.Right))
	}
	maxDiff := 0.0
	for i := range gotL {
		maxDiff = math.Max(maxDiff, math.Abs(gotL[i]-batch.Left[i]))
		maxDiff = math.Max(maxDiff, math.Abs(gotR[i]-batch.Right[i]))
	}
	// The engines are bit-identical; the float32 response encoding is the
	// only difference.
	if maxDiff > 1e-5 {
		t.Errorf("stream vs batch render max diff %g, want < 1e-5", maxDiff)
	}
}

// streamRenderAt streams mono through a ?source= render session for vol1
// with the head at yawDeg, in 1024-sample frames, and returns the whole
// binaural output as the client received it.
func streamRenderAt(ctx context.Context, t *testing.T, client *Client, sourceDeg, yawDeg float64, mono []float64) (gotL, gotR []float64) {
	t.Helper()
	st, err := client.StreamRender(ctx, "vol1", sourceDeg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sr, err := st.SampleRate(); err != nil || sr != 48000 {
		t.Fatalf("announced sample rate %v (err %v), want 48000", sr, err)
	}

	recvDone := make(chan error, 1)
	go func() {
		for {
			l, r, err := st.Recv()
			if err == io.EOF {
				recvDone <- nil
				return
			}
			if err != nil {
				recvDone <- err
				return
			}
			gotL = append(gotL, l...)
			gotR = append(gotR, r...)
		}
	}()
	if err := st.SendPose(yawDeg); err != nil {
		t.Fatal(err)
	}
	const chunk = 1024
	for off := 0; off < len(mono); off += chunk {
		end := min(off+chunk, len(mono))
		if err := st.SendAudio(mono[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	return gotL, gotR
}

// TestStreamRenderRightHemisphereSwapsEars is the end-to-end regression
// test for the single-source mirror bug: ?source=290 renders through the
// 70° mirror and must come back as the 70° render with the ears
// exchanged. The old single-source session folded without the swap, so
// the listener heard a right-side source on the left.
func TestStreamRenderRightHemisphereSwapsEars(t *testing.T) {
	_, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	mono := quantizeF32(dsp.WhiteNoise(4800, rand.New(rand.NewSource(29))))

	batch, err := client.Render(ctx, "vol1", RenderRequest{Mono: mono, AngleDeg: 70})
	if err != nil {
		t.Fatal(err)
	}
	gotL, gotR := streamRenderAt(ctx, t, client, 290, 0, mono)

	if len(gotL) != len(batch.Left) {
		t.Fatalf("stream length %d, batch %d", len(gotL), len(batch.Left))
	}
	earGap, maxDiff := 0.0, 0.0
	for i := range gotL {
		earGap = math.Max(earGap, math.Abs(batch.Left[i]-batch.Right[i]))
		maxDiff = math.Max(maxDiff, math.Abs(gotL[i]-batch.Right[i]))
		maxDiff = math.Max(maxDiff, math.Abs(gotR[i]-batch.Left[i]))
	}
	if earGap < 1e-3 {
		t.Fatalf("70° render has near-identical ears (gap %g); the mirror check is vacuous", earGap)
	}
	// Float32 response encoding is the only difference from the swapped
	// batch render.
	if maxDiff > 1e-5 {
		t.Errorf("290° stream vs ear-swapped 70° batch max diff %g, want < 1e-5", maxDiff)
	}
}

func TestStreamSceneEndpointMatchesRoomRenderer(t *testing.T) {
	svc, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	tab, err := svc.Store().Get("vol1")
	if err != nil {
		t.Fatal(err)
	}
	mono := quantizeF32(dsp.WhiteNoise(9600, rand.New(rand.NewSource(7))))

	// Batch reference: the room renderer over the same profile. The yaw
	// stays 0 — with a room, the world bearing fixes the image geometry,
	// so a yawed listener is not equivalent to a rotated source.
	rc := room.DefaultConfig()
	rr := render.RoomRenderer{Table: tab.Table, Room: rc}
	wantL, wantR, err := rr.Render(mono, 75, 1.8)
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.StreamRenderScene(ctx, "vol1", SceneDesc{
		Room: &SceneRoom{
			Width: rc.Width, Depth: rc.Depth,
			OriginX: rc.Origin.X, OriginY: rc.Origin.Y,
			Absorption: rc.Absorption, MaxOrder: rc.MaxOrder,
		},
		Sources: []SceneSourceDesc{{BearingDeg: 75, Distance: 1.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sr, err := st.SampleRate(); err != nil || sr != 48000 {
		t.Fatalf("announced sample rate %v (err %v), want 48000", sr, err)
	}

	var gotL, gotR []float64
	recvDone := make(chan error, 1)
	go func() {
		for {
			l, r, err := st.Recv()
			if err == io.EOF {
				recvDone <- nil
				return
			}
			if err != nil {
				recvDone <- err
				return
			}
			gotL = append(gotL, l...)
			gotR = append(gotR, r...)
		}
	}()
	const chunk = 1024
	for off := 0; off < len(mono); off += chunk {
		end := min(off+chunk, len(mono))
		// Explicit per-source frames ('s' with index 0) rather than the
		// single-source 'a' alias, so this path is exercised end to end.
		if err := st.SendSourceAudio(0, mono[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	if len(gotL) != len(wantL) || len(gotR) != len(wantR) {
		t.Fatalf("scene stream lengths %d/%d, batch %d/%d",
			len(gotL), len(gotR), len(wantL), len(wantR))
	}
	maxDiff := 0.0
	for i := range gotL {
		maxDiff = math.Max(maxDiff, math.Abs(gotL[i]-wantL[i]))
		maxDiff = math.Max(maxDiff, math.Abs(gotR[i]-wantR[i]))
	}
	// Identical engines; only the float32 response encoding differs.
	if maxDiff > 1e-5 {
		t.Errorf("scene stream vs room renderer max diff %g, want < 1e-5", maxDiff)
	}
}

func TestStreamSceneMultiSourceEndpoint(t *testing.T) {
	svc, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	tab, err := svc.Store().Get("vol1")
	if err != nil {
		t.Fatal(err)
	}
	long := quantizeF32(dsp.WhiteNoise(7200, rand.New(rand.NewSource(3))))
	short := quantizeF32(dsp.WhiteNoise(2400, rand.New(rand.NewSource(4))))

	// Local engine reference with the same source layout and event order:
	// the endpoint should be a transparent transport in front of it.
	srcs := []stream.SceneSource{{BearingDeg: 40}, {BearingDeg: 250, Gain: 0.5}}
	ref, err := stream.NewScene(tab.Table, stream.SceneOptions{
		Convolver: stream.ConvolverOptions{MaxPending: 1 << 15},
		Sources:   srcs,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedRef := func(i int, mono []float64) {
		for off := 0; off < len(mono); off += ref.BlockSize() {
			end := min(off+ref.BlockSize(), len(mono))
			if _, err := ref.PushFrame(i, mono[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.SetPose(10)
	feedRef(1, short)
	if err := ref.FlushSource(1); err != nil {
		t.Fatal(err)
	}
	feedRef(0, long[:4800])
	if err := ref.SetBearing(0, 55); err != nil {
		t.Fatal(err)
	}
	feedRef(0, long[4800:])
	ref.Flush()
	wantL := make([]float64, len(long)+ref.TailLen())
	wantR := make([]float64, len(wantL))
	for off := 0; off < len(wantL); {
		n := ref.ReadFrame(wantL[off:], wantR[off:])
		if n == 0 {
			t.Fatalf("reference scene stalled at %d/%d", off, len(wantL))
		}
		off += n
	}

	st, err := client.StreamRenderScene(ctx, "vol1", SceneDesc{
		Sources: []SceneSourceDesc{
			{BearingDeg: 40},
			{BearingDeg: 250, Gain: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumSources() != 2 {
		t.Fatalf("NumSources = %d, want 2", st.NumSources())
	}

	// The session is live (headers in hand): both scene gauges must show.
	m, err := client.MetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[`uniqd_stream_active_sessions{kind="scene"}`] != 1 {
		t.Errorf("live scene sessions = %g, want 1", m[`uniqd_stream_active_sessions{kind="scene"}`])
	}
	if m[`uniqd_stream_scene_sources`] != 2 {
		t.Errorf("live scene sources = %g, want 2", m[`uniqd_stream_scene_sources`])
	}

	var gotL, gotR []float64
	recvDone := make(chan error, 1)
	go func() {
		for {
			l, r, err := st.Recv()
			if err == io.EOF {
				recvDone <- nil
				return
			}
			if err != nil {
				recvDone <- err
				return
			}
			gotL = append(gotL, l...)
			gotR = append(gotR, r...)
		}
	}()
	if err := st.SendPose(10); err != nil {
		t.Fatal(err)
	}
	if err := st.SendSourceAudio(1, short); err != nil {
		t.Fatal(err)
	}
	if err := st.EndSource(1); err != nil {
		t.Fatal(err)
	}
	if err := st.SendSourceAudio(0, long[:4800]); err != nil {
		t.Fatal(err)
	}
	if err := st.SendBearing(0, 55); err != nil {
		t.Fatal(err)
	}
	if err := st.SendSourceAudio(0, long[4800:]); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	if len(gotL) != len(wantL) {
		t.Fatalf("scene stream length %d, local engine %d", len(gotL), len(wantL))
	}
	maxDiff := 0.0
	for i := range gotL {
		maxDiff = math.Max(maxDiff, math.Abs(gotL[i]-wantL[i]))
		maxDiff = math.Max(maxDiff, math.Abs(gotR[i]-wantR[i]))
	}
	if maxDiff > 1e-5 {
		t.Errorf("scene stream vs local engine max diff %g, want < 1e-5", maxDiff)
	}

	st.Close()
	m, err = client.MetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[`uniqd_stream_scene_sources`] != 0 {
		t.Errorf("scene sources still counted after close: %g", m[`uniqd_stream_scene_sources`])
	}
	if m[`uniqd_stream_active_sessions{kind="scene"}`] != 0 {
		t.Errorf("scene session still counted live after close: %g",
			m[`uniqd_stream_active_sessions{kind="scene"}`])
	}
	if m[`uniqd_stream_frames_total{kind="scene",dir="in"}`] == 0 {
		t.Error("scene input frames not counted")
	}
	if m[`uniqd_stream_frames_total{kind="scene",dir="out"}`] == 0 {
		t.Error("scene output frames not counted")
	}
}

func TestStreamSceneRejectsBadScenes(t *testing.T) {
	_, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if _, err := client.StreamRenderScene(ctx, "nobody",
		SceneDesc{Sources: []SceneSourceDesc{{BearingDeg: 90}}}); !isStatus(err, 404) {
		t.Errorf("scene for unknown user: %v, want 404", err)
	}
	if _, err := client.StreamRenderScene(ctx, "vol1", SceneDesc{}); !isStatus(err, 422) {
		t.Errorf("scene with no sources: %v, want 422", err)
	}
	if _, err := client.StreamRenderScene(ctx, "vol1", SceneDesc{
		Room:    &SceneRoom{Width: 4, Depth: 5, OriginX: -3, OriginY: 1, Absorption: 0.45, MaxOrder: 2},
		Sources: []SceneSourceDesc{{BearingDeg: 90}},
	}); !isStatus(err, 422) {
		t.Errorf("scene with origin outside room: %v, want 422", err)
	}
	// Malformed ?scene= JSON never leaves the client helper, so hit the
	// endpoint directly.
	if _, _, err := client.openStream(ctx, "/v1/stream/render/vol1?scene=notjson"); !isStatus(err, 400) {
		t.Errorf("malformed scene JSON: %v, want 400", err)
	}
}

func TestStreamAoAEndpointTracksStaticSource(t *testing.T) {
	svc, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	tab, err := svc.Store().Get("vol1")
	if err != nil {
		t.Fatal(err)
	}
	const deg = 40.0
	h, err := tab.Table.FarAt(deg)
	if err != nil {
		t.Fatal(err)
	}
	src := dsp.WhiteNoise(4800, rand.New(rand.NewSource(11)))
	l, r := h.Render(src)
	l, r = quantizeF32(l[:len(src)]), quantizeF32(r[:len(src)])

	st, err := client.StreamAoA(ctx, "vol1", AoAStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const chunk = 1600
	for off := 0; off < len(l); off += chunk {
		end := min(off+chunk, len(l))
		if err := st.SendStereo(l[off:end], r[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	events := 0
	for {
		ev, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events++
		if math.Abs(ev.AngleDeg-deg) > 2*tab.Table.AngleStep {
			t.Errorf("event %d: angle %g, want near %g", events, ev.AngleDeg, deg)
		}
		if ev.TimeSec <= 0 {
			t.Errorf("event %d: non-positive timestamp %g", events, ev.TimeSec)
		}
	}
	if events == 0 {
		t.Fatal("no angle events for a full-second stream")
	}

	// Both endpoints have run by now (test order within the package does
	// not matter for these keys: this test alone produces aoa series, and
	// render/aoa metrics are asserted independently).
	m, err := client.MetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[`uniqd_stream_frames_total{kind="aoa",dir="in"}`] == 0 {
		t.Error("aoa input frames not counted")
	}
	if m[`uniqd_stream_frames_total{kind="aoa",dir="out"}`] == 0 {
		t.Error("aoa events not counted")
	}
	if m[`uniqd_stream_active_sessions{kind="aoa"}`] != 0 {
		t.Error("aoa session still counted live after close")
	}
	if m[`uniqd_stream_overrun_samples_total`] != 0 || m[`uniqd_stream_underrun_samples_total`] != 0 {
		t.Errorf("drops on a clean stream: overruns %g, underruns %g",
			m[`uniqd_stream_overrun_samples_total`], m[`uniqd_stream_underrun_samples_total`])
	}
}

func TestStreamEndpointsRejectUnknownUser(t *testing.T) {
	_, client := newStreamTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := client.StreamRender(ctx, "nobody", 90); !isStatus(err, 404) {
		t.Errorf("StreamRender unknown user: %v, want 404", err)
	}
	if _, err := client.StreamAoA(ctx, "nobody", AoAStreamOptions{}); !isStatus(err, 404) {
		t.Errorf("StreamAoA unknown user: %v, want 404", err)
	}
}

func isStatus(err error, code int) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == code
}

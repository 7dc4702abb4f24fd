package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/room"
	"repro/internal/stream"
)

// streamOutChunk is the largest binaural output frame the render stream
// emits at once (samples per ear).
const streamOutChunk = 4096

// parseQueryFloat reads an optional float query parameter, reporting 400
// itself. ok is false when the caller should stop.
func parseQueryFloat(w http.ResponseWriter, r *http.Request, name string, def float64) (v float64, ok bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s %q: %v", name, s, err)
		return 0, false
	}
	return f, true
}

// markStreamErrorsClose must run first in a streaming handler: clients
// hold the request body open while waiting for our headers, so an error
// response on a kept-alive connection would never flush (the server would
// first try to drain the unending body). Closing the connection on error
// gets the status out immediately; startStream clears the header once the
// stream is actually live.
func markStreamErrorsClose(w http.ResponseWriter) {
	w.Header().Set("Connection", "close")
}

// startStream switches the response into streaming mode: full-duplex HTTP
// (the handler keeps reading frames while writing results), headers out
// immediately so the client can start its read loop before sending audio.
func startStream(w http.ResponseWriter, contentType string) *http.ResponseController {
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // no-op (and not needed) on HTTP/2
	w.Header().Del("Connection")
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	return rc
}

// handleStreamRender is POST /v1/stream/render/{user}: a live binaural
// render session over chunked HTTP. The request body is a frame stream
// (mono float32 audio, pose updates and the per-source 's'/'b'/'e'
// frames); the response is a frame stream of interleaved stereo float32.
// Query parameter "source" places one world-frame source bearing
// (degrees, default 90); "scene" (URL-encoded SceneDesc JSON) lays out a
// multi-source scene with room acoustics instead. Either way the session
// is one stream.Scene, so a single-source session is a one-source scene
// and both run the same frame loop.
func (s *Service) handleStreamRender(w http.ResponseWriter, r *http.Request) {
	markStreamErrorsClose(w)
	p := s.profileFor(w, r.PathValue("user"))
	if p == nil {
		return
	}
	opt, kind, ok := renderSceneOptions(w, r)
	if !ok {
		return
	}
	// The HTTP path backpressures through TCP, not through drops: the
	// handler drains the engine after every block, so a generous pending
	// bound is never reached.
	opt.Convolver = stream.ConvolverOptions{MaxPending: 1 << 15}
	sc, err := stream.NewScene(p.Table, opt)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%s session: %v", kind, err)
		return
	}
	// Count the session live before its headers go out: a client holding
	// them may already be reading the gauges.
	var done func()
	if kind == "scene" {
		done = s.metrics.sceneStart(sc.NumSources())
	} else {
		done = s.metrics.streamStart(kind)
	}
	defer func() {
		st := sc.Stats()
		s.metrics.addStreamDrops(st.OverrunSamples, st.UnderrunSamples)
		done()
	}()
	w.Header().Set("Uniq-Sample-Rate", strconv.FormatFloat(p.Table.SampleRate, 'g', -1, 64))
	rc := startStream(w, "application/octet-stream")

	var (
		frameBuf []byte
		mono     []float64
		outL     = make([]float64, streamOutChunk)
		outR     = make([]float64, streamOutChunk)
		outBytes = make([]byte, 0, 8*streamOutChunk)
	)
	block := sc.BlockSize()
	// drain writes every ready output sample as stereo frames; false when
	// the client is gone.
	drain := func() bool {
		for {
			n := min(sc.Available(), streamOutChunk)
			if n == 0 {
				return true
			}
			n = sc.ReadFrame(outL[:n], outR[:n])
			outBytes = appendF32LEStereo(outBytes[:0], outL[:n], outR[:n])
			if err := writeFrame(w, frameAudio, outBytes); err != nil {
				return false
			}
			s.metrics.countStreamFrame(kind, "out")
		}
	}
	// feed pushes one source's mono chunk block by block, draining the
	// output between blocks so the engine's bounded buffers never
	// overflow however large the client's frames are; false when the
	// client is gone or the source index is bad.
	feed := func(idx int, mono []float64) bool {
		for off := 0; off < len(mono); {
			n := min(block, len(mono)-off)
			if _, err := sc.PushFrame(idx, mono[off:off+n]); err != nil {
				return false
			}
			off += n
			if !drain() {
				return false
			}
		}
		_ = rc.Flush()
		return true
	}
	for {
		typ, payload, err := readFrame(r.Body, frameBuf)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Mid-frame disconnect or protocol violation: the status line
			// is long gone, so just stop.
			return
		}
		frameBuf = payload
		start := time.Now()
		switch typ {
		case framePose:
			yaw, err := decodeF64BE(payload)
			if err != nil {
				return
			}
			sc.SetPose(yaw)
		case frameAudio:
			// Single-source clients keep working against scene sessions:
			// a plain audio frame feeds source 0.
			if mono, err = decodeF32LE(mono, payload); err != nil {
				return
			}
			if !feed(0, mono) {
				return
			}
		case frameSceneAudio:
			idx, rest, err := splitSourceIndex(payload)
			if err != nil {
				return
			}
			if mono, err = decodeF32LE(mono, rest); err != nil {
				return
			}
			if !feed(idx, mono) {
				return
			}
		case frameBearing:
			idx, rest, err := splitSourceIndex(payload)
			if err != nil {
				return
			}
			deg, err := decodeF64BE(rest)
			if err != nil {
				return
			}
			if err := sc.SetBearing(idx, deg); err != nil {
				return
			}
		case frameSourceEnd:
			idx, _, err := splitSourceIndex(payload)
			if err != nil {
				return
			}
			if err := sc.FlushSource(idx); err != nil {
				return
			}
			// A finished source may unblock output held back by the
			// slowest-source timeline.
			if !drain() {
				return
			}
			_ = rc.Flush()
		}
		s.metrics.observeStreamFrame(kind, time.Since(start).Seconds())
	}
	sc.Flush()
	drain()
	_ = rc.Flush()
}

// SceneDesc is the JSON scene description carried in the ?scene= query
// parameter of POST /v1/stream/render/{user}. It is deliberately a thin
// mirror of stream.SceneOptions so the wire shape stays stable if the
// engine types grow.
type SceneDesc struct {
	// Room is optional; omitting it renders free-field (no reflections).
	Room *SceneRoom `json:"room,omitempty"`
	// Sources lays out the scene (at least one).
	Sources []SceneSourceDesc `json:"sources"`
}

// SceneRoom mirrors room.Config.
type SceneRoom struct {
	Width      float64 `json:"width"`
	Depth      float64 `json:"depth"`
	OriginX    float64 `json:"originX"`
	OriginY    float64 `json:"originY"`
	Absorption float64 `json:"absorption"`
	MaxOrder   int     `json:"maxOrder"`
}

// SceneSourceDesc mirrors stream.SceneSource.
type SceneSourceDesc struct {
	BearingDeg float64 `json:"bearingDeg"`
	Distance   float64 `json:"distance,omitempty"`
	Gain       float64 `json:"gain,omitempty"`
}

// renderSceneOptions reads a render session's layout from the query:
// "scene" (SceneDesc JSON) or else "source" (one free-field source,
// default 90°). It reports 400 itself; ok is false when the caller should
// stop. kind is the session's metric label, "scene" or "render".
func renderSceneOptions(w http.ResponseWriter, r *http.Request) (opt stream.SceneOptions, kind string, ok bool) {
	sceneQ := r.URL.Query().Get("scene")
	if sceneQ == "" {
		source, ok := parseQueryFloat(w, r, "source", 90)
		opt.Sources = []stream.SceneSource{{BearingDeg: source}}
		return opt, "render", ok
	}
	var desc SceneDesc
	if err := json.Unmarshal([]byte(sceneQ), &desc); err != nil {
		httpError(w, http.StatusBadRequest, "bad scene description: %v", err)
		return opt, "", false
	}
	if desc.Room != nil {
		opt.Room = room.Config{
			Width: desc.Room.Width, Depth: desc.Room.Depth,
			Origin:     geom.Vec{X: desc.Room.OriginX, Y: desc.Room.OriginY},
			Absorption: desc.Room.Absorption,
			MaxOrder:   desc.Room.MaxOrder,
		}
	}
	for _, src := range desc.Sources {
		opt.Sources = append(opt.Sources, stream.SceneSource{
			BearingDeg: src.BearingDeg,
			Distance:   src.Distance,
			Gain:       src.Gain,
		})
	}
	return opt, "scene", true
}

// handleStreamAoA is POST /v1/stream/aoa/{user}: live angle-of-arrival
// tracking. The request body is a frame stream of interleaved stereo
// float32; the response is newline-delimited JSON, one stream.AngleEvent
// per estimation hop. Query parameters "window" and "hop" (samples)
// override the tracker defaults.
func (s *Service) handleStreamAoA(w http.ResponseWriter, r *http.Request) {
	markStreamErrorsClose(w)
	p := s.profileFor(w, r.PathValue("user"))
	if p == nil {
		return
	}
	window, ok := parseQueryFloat(w, r, "window", 0)
	if !ok {
		return
	}
	hop, ok := parseQueryFloat(w, r, "hop", 0)
	if !ok {
		return
	}
	tr, err := stream.NewAoATracker(p.Table, stream.TrackerOptions{
		Window: int(window),
		Hop:    int(hop),
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "aoa tracker: %v", err)
		return
	}
	rc := startStream(w, "application/x-ndjson")
	done := s.metrics.streamStart("aoa")
	defer func() {
		s.metrics.addStreamDrops(tr.Overruns(), 0)
		done()
	}()

	enc := json.NewEncoder(w)
	var (
		frameBuf []byte
		left     []float64
		right    []float64
	)
	for {
		typ, payload, err := readFrame(r.Body, frameBuf)
		if err == io.EOF {
			return
		}
		if err != nil {
			return
		}
		frameBuf = payload
		if typ != frameAudio {
			continue
		}
		start := time.Now()
		if left, right, err = decodeF32LEStereo(left, right, payload); err != nil {
			return
		}
		// Window-sized chunks keep the tracker's pending bound from ever
		// filling, mirroring the render path.
		for off := 0; off < len(left); {
			n := min(tr.Window(), len(left)-off)
			events := tr.Push(left[off:off+n], right[off:off+n])
			off += n
			for _, ev := range events {
				if err := enc.Encode(ev); err != nil {
					return
				}
				s.metrics.countStreamFrame("aoa", "out")
			}
		}
		_ = rc.Flush()
		s.metrics.observeStreamFrame("aoa", time.Since(start).Seconds())
	}
}

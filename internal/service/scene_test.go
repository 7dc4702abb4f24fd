package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/hrtf"
	"repro/internal/stream"
)

// sceneOptions runs the render endpoint's ?scene= parsing on raw.
func sceneOptions(raw string) (*httptest.ResponseRecorder, stream.SceneOptions, bool) {
	r := httptest.NewRequest(http.MethodPost, "/v1/stream/render/u?scene="+url.QueryEscape(raw), nil)
	w := httptest.NewRecorder()
	opt, _, ok := renderSceneOptions(w, r)
	return w, opt, ok
}

// sceneTable is a small 48 kHz table: scene memory scales with the sample
// rate through the room's delay headroom, not with the IR length.
var sceneTable = sync.OnceValue(func() *hrtf.Table {
	tab := hrtf.NewTable(48000, 0, 30, 7)
	for i := range tab.Far {
		ir := make([]float64, 32)
		ir[i] = 1
		tab.Far[i] = hrtf.HRIR{Left: ir, Right: ir[:24], SampleRate: 48000}
	}
	return tab
})

// sceneJSON lays out n sources at distance dist in a width×depth room of
// the given order, with the listener at the room's centre.
func sceneJSON(n int, width, depth float64, order int, dist float64) string {
	srcs := make([]SceneSourceDesc, n)
	for i := range srcs {
		srcs[i] = SceneSourceDesc{BearingDeg: float64(45 * i), Distance: dist}
	}
	b, err := json.Marshal(SceneDesc{
		Room: &SceneRoom{
			Width: width, Depth: depth, OriginX: width / 2, OriginY: depth / 2,
			Absorption: 0.45, MaxOrder: order,
		},
		Sources: srcs,
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// The scenes the docs and the benchmark send, and the largest scene inside
// every limit; all stay accepted.
var acceptedScenes = []string{
	// README and docs/TUTORIAL.md.
	`{"room": {"width": 4, "depth": 5, "originX": 0.75, "originY": 1.3, "absorption": 0.45, "maxOrder": 2},
	  "sources": [{"bearingDeg": 60, "distance": 1.5}, {"bearingDeg": 250, "distance": 2.5, "gain": 0.5}]}`,
	// bench/uniqbench: the default room, two sources.
	`{"room": {"width": 4, "depth": 5, "originX": 0.75, "originY": 1.3, "absorption": 0.45, "maxOrder": 2},
	  "sources": [{"bearingDeg": 0, "distance": 1.2, "gain": 1}, {"bearingDeg": 300, "distance": 2, "gain": 1}]}`,
	`{"sources": [{"bearingDeg": 40}, {"bearingDeg": 250, "gain": 0.5}]}`,
	sceneJSON(maxSceneSources, maxSceneMetres, maxSceneMetres, maxSceneOrder, maxSceneMetres),
}

// TestSceneLimits pins the bounds on ?scene=: each limit answers 422 with
// its own code before the engine sizes anything. Unbounded, a 1e19 m room
// (valid JSON) overflowed the int image delays and panicked NewScene, and
// a 1e5 m room sized ~0.9 GB of output accumulators per source.
func TestSceneLimits(t *testing.T) {
	for _, tc := range []struct {
		name, scene, code string
	}{
		{"too many sources", sceneJSON(maxSceneSources+1, 4, 5, 2, 2), CodeSceneSources},
		{"order too high", sceneJSON(2, 4, 5, maxSceneOrder+1, 2), CodeSceneOrder},
		{"negative order", sceneJSON(2, 4, 5, -1, 2), CodeSceneOrder},
		{"room too wide", sceneJSON(2, maxSceneMetres+1, 5, 2, 2), CodeSceneRoomSize},
		{"room too deep", sceneJSON(2, 4, maxSceneMetres+1, 2, 2), CodeSceneRoomSize},
		{"room 1e19 m wide", sceneJSON(1, 1e19, 5, 2, 2), CodeSceneRoomSize},
		{"room 1e5 m free field", sceneJSON(1, 1e5, 1e5, 0, 2), CodeSceneRoomSize},
		{"source too far", sceneJSON(2, 4, 5, 2, maxSceneMetres+1), CodeSceneDistance},
	} {
		w, _, ok := sceneOptions(tc.scene)
		var body apiError
		_ = json.Unmarshal(w.Body.Bytes(), &body)
		if ok || w.Code != http.StatusUnprocessableEntity || body.Code != tc.code {
			t.Errorf("%s: ok %v, status %d, code %q; want 422 %q", tc.name, ok, w.Code, body.Code, tc.code)
		}
	}
	for i, scene := range acceptedScenes {
		w, opt, ok := sceneOptions(scene)
		if !ok {
			t.Errorf("scene %d rejected: %d %s", i, w.Code, w.Body)
			continue
		}
		if _, err := stream.NewScene(sceneTable(), opt); err != nil {
			t.Errorf("scene %d: %v", i, err)
		}
	}
}

// FuzzSceneDesc drives arbitrary ?scene= bytes through the render
// endpoint's scene parsing and, when accepted, into stream.NewScene and a
// hop of audio: nothing may panic.
func FuzzSceneDesc(f *testing.F) {
	for _, s := range acceptedScenes {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		sceneJSON(1, 1e19, 5, 2, 2),
		sceneJSON(1, 4, 5, 2, 1e19),
		sceneJSON(1, 4, 5, 2, -1e19),
		`{"room": {"width": 4, "depth": 5, "originX": 1e19, "originY": 1, "absorption": 0.5, "maxOrder": 1}, "sources": [{}]}`,
		`{"room": {"maxOrder": 1000000000}, "sources": [{}]}`,
		`{"sources": [{"bearingDeg": 1e300, "gain": -1e300}]}`,
		`{"sources": []}`,
		`not json`,
	} {
		f.Add([]byte(s))
	}
	tab := sceneTable()
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, opt, ok := sceneOptions(string(raw))
		if !ok {
			return
		}
		sc, err := stream.NewScene(tab, opt)
		if err != nil {
			return
		}
		hop := make([]float64, sc.BlockSize()/2)
		for i := range hop {
			hop[i] = 1
		}
		for i := 0; i < sc.NumSources(); i++ {
			if _, err := sc.PushFrame(i, hop); err != nil {
				t.Fatal(fmt.Errorf("push source %d: %w", i, err))
			}
		}
		sc.ReadFrame(hop, make([]float64, len(hop)))
	})
}

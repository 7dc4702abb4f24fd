package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sim"
)

// personalizeGoldenHash is the SHA-256 over the JSON encoding of the full
// personalization output (table, head params, track, radii) for the frozen
// session below, captured before the sweep-batch Localizer rewrite and the
// fusion Localizer cache (commit 77f7551). The geometry fast paths, the
// delay-field build and the cache are all required to be bit-invisible in
// the output, so this hash must never change. Refresh deliberately with
//
//	GOLDEN_UPDATE=1 go test -run TestPersonalizeGoldenBitExact ./internal/core
//
// only when an intentional numerical change is being made.
const personalizeGoldenHash = "b059b20b5dbafd92eb4195fff676d8fc2d2d419078193b44bc87f68bfd42958e"

// servedGoldenHash pins the same session through default PipelineOptions —
// the coarse-to-fine fusion cascade uniqd serves — at a fixed worker count.
// It was captured before the tabulated sinc refiner and the per-solve
// alignment memo, both of which must be bit-invisible.
const servedGoldenHash = "6913292bf41f8122393184a8592b570528f4bc861c8ab855e352f7a6fc594a57"

// TestPersonalizeGoldenBitExact runs the pipeline on a frozen simulated
// session and asserts the output is bit-identical to the recorded golden,
// once on the exact fusion path and once on the served default cascade.
// TestPersonalizeWorkerDeterminism proves worker-count invariance within
// one binary; this test pins the numbers across PRs, so a refactor that
// silently perturbs the fusion trajectory (e.g. a lossy Localizer cache)
// or the far-field synthesis cannot pass.
func TestPersonalizeGoldenBitExact(t *testing.T) {
	v := sim.NewVolunteer(3, 9001)
	s, err := sim.RunSession(v, sim.SessionConfig{NumStops: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  PipelineOptions
		want string
	}{
		{"exact", coarseOptions(-1), personalizeGoldenHash},
		{"served", PipelineOptions{Workers: 2}, servedGoldenHash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Personalize(sessionInput(s), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			enc := json.NewEncoder(h)
			for _, part := range []any{p.Table, p.HeadParams, p.TrackDeg, p.Radii} {
				if err := enc.Encode(part); err != nil {
					t.Fatal(err)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if os.Getenv("GOLDEN_UPDATE") != "" {
				t.Logf("golden hash: %s", got)
				return
			}
			if got != tc.want {
				t.Fatalf("personalization output drifted from the frozen golden:\n got  %s\n want %s\n"+
					"solver rewrites must be bit-invisible; if this change is intentional, refresh with GOLDEN_UPDATE=1",
					got, tc.want)
			}
		})
	}
}

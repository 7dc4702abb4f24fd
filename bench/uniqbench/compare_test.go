package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds one side's results: ten seeds of a workload, metric value
// f(seed), measured at host slowness slow (the raw value is f·slow).
func runs(workload string, f func(seed int) float64, failed int, slow float64) []savedResult {
	var out []savedResult
	for s := 1; s <= 10; s++ {
		out = append(out, savedResult{
			Workload: workload,
			Seed:     int64(s),
			Raw:      map[string]float64{"p50_ms": f(s) * slow},
			Slowness: map[string]float64{"window": slow},
			result: result{
				Correct:   failed == 0,
				Attempted: 100,
				Failed:    failed,
				Metrics: map[string]metric{
					"p50_ms":    {Value: f(s), Unit: "ms"},
					"ops_per_s": {Value: 1000 / f(s), Unit: "1/s"},
				},
			},
		})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	bounds := []bound{
		{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}
	steady := func(s int) float64 { return 100 + float64(s%3) } // ±1% around 101
	faster := func(s int) float64 { return steady(s) * 0.8 }
	for _, c := range []struct {
		name   string
		head   []savedResult
		want   string // verdict for both metrics (ops_per_s mirrors p50_ms)
		failed float64
	}{
		{"same code", runs("scene", steady, 0, 1), "no worse", 0},
		{"slightly slower", runs("scene", func(s int) float64 { return steady(s) * 1.05 }, 0, 1), "no worse", 0},
		{"much slower", runs("scene", func(s int) float64 { return steady(s) * 1.3 }, 0, 1), "regressed", 0},
		{"faster", runs("scene", faster, 0, 1), "improved", 0},
		{"faster but failing more", runs("scene", faster, 2, 1), "no worse", 0.02},
		{"faster on two pairs", runs("scene", faster, 0, 1)[:2], "no worse", 0},
		{"noisy", runs("scene", func(s int) float64 { return 100 * (1 + 0.4*float64(s%2)) }, 0, 1), "unresolved", 0},
	} {
		rows := compareResults(bounds, runs("scene", steady, 0, 1), c.head)
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", c.name, len(rows))
		}
		for _, r := range rows {
			if r.verdict != c.want {
				t.Errorf("%s: %s verdict %q, want %q (base %v head %v wins %d/%d)",
					c.name, r.Name, r.verdict, c.want, r.base, r.head, r.wins, r.pairs)
			}
			if r.baseFail != 0 || r.headFail != c.failed {
				t.Errorf("%s: failed shares %v/%v, want 0/%v", c.name, r.baseFail, r.headFail, c.failed)
			}
		}
	}
}

// TestCompareJudgesRawValuesAndFlagsSlownessShift: when the head side ran
// on a slower host, the scaled verdict holds, the raw verdict shows the
// measured difference, and the slowness shift is reported past the bound.
func TestCompareJudgesRawValuesAndFlagsSlownessShift(t *testing.T) {
	steady := func(s int) float64 { return 100 + float64(s%3) }
	bounds := []bound{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}
	rows := compareResults(bounds, runs("scene", steady, 0, 1), runs("scene", steady, 0, 1.3))
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.verdict != "no worse" || r.rawVerdict != "regressed" || !near(r.slowShift, 0.3) {
		t.Errorf("verdict %q, raw %q, slowness shift %v; want no worse, regressed, 0.3", r.verdict, r.rawVerdict, r.slowShift)
	}
	var out bytes.Buffer
	printComparison(&out, rows)
	if !strings.Contains(out.String(), "+30.0% !") {
		t.Errorf("printed table does not flag the shift:\n%s", out.String())
	}
}

// TestComparePairsBySeedAndSkipsTraces: runs pair up in seed order whatever
// the file order, traced runs are ignored, and a workload only one side ran
// gets no row.
func TestComparePairsBySeedAndSkipsTraces(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r savedResult) {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := runs("track", func(s int) float64 { return float64(s) }, 0, 1)
	head := runs("track", func(s int) float64 { return float64(s) - 0.5 }, 0, 1)
	for i := range base {
		// Reverse the file order of one side.
		write("base-"+string(rune('a'+i))+".json", base[i])
		write("head-"+string(rune('a'+9-i))+".json", head[i])
	}
	traced := head[0]
	traced.Trace = true
	write("head-trace.json", traced)
	write("base-only.json", runs("enroll", func(int) float64 { return 1 }, 0, 1)[0])

	b, err := loadResults([]string{filepath.Join(dir, "base-*.json")})
	if err != nil {
		t.Fatal(err)
	}
	h, err := loadResults([]string{filepath.Join(dir, "head-*.json")})
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 10 {
		t.Fatalf("loaded %d head results, want 10 (the traced one skipped)", len(h))
	}
	rows := compareResults([]bound{{Name: "p50_ms", Better: "lower", Bound: 0.25}}, b, h)
	if len(rows) != 1 || rows[0].workload != "track" {
		t.Fatalf("rows = %+v, want one track row", rows)
	}
	if rows[0].wins != 10 {
		t.Errorf("head is 0.5 faster on every seed but wins %d/10 pairs", rows[0].wins)
	}
	var out bytes.Buffer
	printComparison(&out, rows)
	if !strings.Contains(out.String(), "track") || !strings.Contains(out.String(), rows[0].verdict) {
		t.Errorf("printed table misses the row:\n%s", out.String())
	}
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// globList collects repeatable flag values, each a glob or a
// comma-separated list of globs.
type globList []string

func (g *globList) String() string { return strings.Join(*g, ",") }

func (g *globList) Set(v string) error {
	*g = append(*g, strings.Split(v, ",")...)
	return nil
}

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain prints, per workload and end-to-end metric, both sides'
// medians and quartiles, pair wins, failed shares and a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uniqbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var base, head globList
	fs.Var(&base, "base", "parent's -out result files (globs; repeatable)")
	fs.Var(&head, "head", "change's -out result files (globs; repeatable)")
	contract := fs.String("benchmark", "BENCHMARK.json", "benchmark contract holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, err := loadBounds(*contract)
	var b, h []savedResult
	if err == nil {
		b, err = loadResults(base)
	}
	if err == nil {
		h, err = loadResults(head)
	}
	if err != nil {
		fmt.Fprintf(stderr, "uniqbench compare: %v\n", err)
		return 1
	}
	printComparison(stdout, compareResults(bounds, b, h))
	return 0
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c.EndToEnd, nil
}

// loadResults reads untraced -out files.
func loadResults(globs []string) ([]savedResult, error) {
	var out []savedResult
	for _, g := range globs {
		paths, err := filepath.Glob(g)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no result files match %q", g)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r savedResult
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if !r.Trace {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// comparison is one workload × metric row.
type comparison struct {
	workload string
	bound
	base, head         [3]float64 // first quartile, median, third quartile
	wins, pairs        int
	baseFail, headFail float64 // failed ops over attempted ops
	verdict            string
	// rawVerdict judges the values as measured, before host-speed scaling
	// ("" for a metric that is not scaled).
	rawVerdict string
	// slowShift is how far the change's median host slowness, over the
	// period that scales the metric, lies from the parent's, as a share of
	// the parent's. Scaling is trusted only while it stays within the
	// bound.
	slowShift float64
}

// minPairs is the fewest pairs an "improved" verdict rests on.
const minPairs = 10

func compareResults(bounds []bound, base, head []savedResult) []comparison {
	bySide := func(rs []savedResult) map[string][]savedResult {
		m := make(map[string][]savedResult)
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		for _, v := range m {
			// Pairs are formed in seed order, so equal seeds pair up.
			sort.Slice(v, func(i, j int) bool { return v[i].Seed < v[j].Seed })
		}
		return m
	}
	b, h := bySide(base), bySide(head)
	var names []string
	for w := range b {
		if _, ok := h[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []comparison
	for _, w := range names {
		for _, bd := range bounds {
			bv, hv := values(b[w], bd.Name), values(h[w], bd.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			c := comparison{workload: w, bound: bd, baseFail: failShare(b[w]), headFail: failShare(h[w])}
			c.base[0], c.base[1], c.base[2] = quartiles(bv)
			c.head[0], c.head[1], c.head[2] = quartiles(hv)
			c.verdict, c.wins, c.pairs = verdict(bd, bv, hv, c.baseFail, c.headFail)
			if period, ok := scaledBy[bd.Name]; ok {
				braw, hraw := rawValues(b[w], bd.Name), rawValues(h[w], bd.Name)
				if len(braw) > 0 && len(hraw) > 0 {
					c.rawVerdict, _, _ = verdict(bd, braw, hraw, c.baseFail, c.headFail)
				}
				bs, hs := slownesses(b[w], period), slownesses(h[w], period)
				if len(bs) > 0 && len(hs) > 0 {
					c.slowShift = median(hs)/median(bs) - 1
				}
			}
			rows = append(rows, c)
		}
	}
	return rows
}

func values(rs []savedResult, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func rawValues(rs []savedResult, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.Raw[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

func slownesses(rs []savedResult, period string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.Slowness[period]; ok {
			v = append(v, x)
		}
	}
	return v
}

func failShare(rs []savedResult) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict applies the acceptance rules to one metric:
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither), the medians differ, its way,
//     by more than the parent's quartile spread, and no larger share of the
//     change's ops failed;
//   - unresolved: either side's quartile spread, as a share of its median,
//     is wider than the bound — unless every run of the change reads
//     better than every run of the parent;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - no worse: otherwise.
func verdict(b bound, base, head []float64, baseFail, headFail float64) (v string, wins, pairs int) {
	sign := -1.0 // lower is better
	if b.Better == "higher" {
		sign = 1
	}
	pairs = min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			wins++
		}
	}
	bq1, bm, bq3 := quartiles(base)
	hq1, hm, hq3 := quartiles(head)
	spread := math.Max((bq3-bq1)/math.Abs(bm), (hq3-hq1)/math.Abs(hm))
	allBetter := true
	for _, x := range head {
		for _, y := range base {
			allBetter = allBetter && sign*(x-y) > 0
		}
	}
	switch {
	case pairs >= minPairs && 10*wins >= 9*pairs && sign*(hm-bm) > bq3-bq1 && headFail <= baseFail:
		return "improved", wins, pairs
	case spread > b.Bound && !allBetter:
		return "unresolved", wins, pairs
	case sign*(bm-hm)/math.Abs(bm) > b.Bound:
		return "regressed", wins, pairs
	default:
		return "no worse", wins, pairs
	}
}

// printComparison writes the table. "raw" is the verdict on the values as
// measured; a slowness shift past the bound is marked "!": the host ran at
// different speeds under the two sides, or the change moved the probe, and
// the scaled verdict needs the raw one beside it.
func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-13s %-14s %-5s %-30s %-30s %7s %13s  %-22s %-11s %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "wins", "failed b/h",
		"verdict", "raw", "slowness")
	for _, c := range rows {
		q := func(v [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", v[1], v[0], v[2]) }
		raw, slow := "-", "-"
		if c.rawVerdict != "" {
			raw = c.rawVerdict
			slow = fmt.Sprintf("%+.1f%%", 100*c.slowShift)
			if math.Abs(c.slowShift) > c.Bound {
				slow += " !"
			}
		}
		fmt.Fprintf(w, "%-13s %-14s %-5s %-30s %-30s %3d/%-3d %6.2f%%/%.2f%%  %-22s %-11s %s\n",
			c.workload, c.Name, c.Unit, q(c.base), q(c.head), c.wins, c.pairs,
			100*c.baseFail, 100*c.headFail, fmt.Sprintf("%s (bound %g)", c.verdict, c.Bound), raw, slow)
	}
}

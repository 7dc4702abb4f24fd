// Package optimize provides the derivative-free minimizers UNIQ's
// diffraction-aware sensor fusion uses to fit head parameters: a bounded
// Nelder–Mead simplex, a coarse grid search for initialization, and a
// golden-section line search. Objectives are arbitrary Go functions; no
// gradients are required, which matters because the head-diffraction
// residual is only piecewise smooth.
package optimize

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Objective is a scalar function of an n-dimensional point.
type Objective func(x []float64) float64

// Bounds restricts a search to the box [Lo[i], Hi[i]] per dimension.
type Bounds struct {
	Lo, Hi []float64
}

// Validate checks the box.
func (b Bounds) Validate(dim int) error {
	if len(b.Lo) != dim || len(b.Hi) != dim {
		return errors.New("optimize: bounds dimension mismatch")
	}
	for i := range b.Lo {
		if !(b.Lo[i] < b.Hi[i]) {
			return errors.New("optimize: lower bound must be below upper bound")
		}
	}
	return nil
}

// Clamp projects x into the box in place.
func (b Bounds) Clamp(x []float64) {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
}

// Result reports a minimization outcome.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Evals is the number of objective evaluations.
	Evals int
	// Converged reports whether the tolerance was met before the
	// evaluation budget ran out.
	Converged bool
}

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	// InitialStep is the simplex edge length per dimension (defaults to
	// 5% of the box extent).
	InitialStep []float64
	// Tol terminates when the simplex's objective spread falls below it.
	Tol float64
	// MaxEvals bounds objective calls (default 2000).
	MaxEvals int
}

// NelderMead minimizes f inside bounds starting at x0 using the
// Nelder–Mead simplex with box projection.
func NelderMead(f Objective, x0 []float64, bounds Bounds, opt NelderMeadOptions) (Result, error) {
	dim := len(x0)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty start point")
	}
	if err := bounds.Validate(dim); err != nil {
		return Result{}, err
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxEvals <= 0 {
		opt.MaxEvals = 2000
	}
	step := opt.InitialStep
	if step == nil {
		step = make([]float64, dim)
		for i := range step {
			step[i] = 0.05 * (bounds.Hi[i] - bounds.Lo[i])
		}
	}
	evals := 0
	eval := func(x []float64) float64 {
		bounds.Clamp(x)
		evals++
		return f(x)
	}

	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, dim+1)
	start := append([]float64(nil), x0...)
	bounds.Clamp(start)
	simplex[0] = vertex{x: start, f: eval(append([]float64(nil), start...))}
	for i := 0; i < dim; i++ {
		x := append([]float64(nil), start...)
		x[i] += step[i]
		if x[i] > bounds.Hi[i] {
			x[i] = start[i] - step[i]
		}
		simplex[i+1] = vertex{x: x, f: eval(append([]float64(nil), x...))}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	centroid := make([]float64, dim)
	for evals < opt.MaxEvals {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if simplex[dim].f-simplex[0].f < opt.Tol {
			return Result{X: simplex[0].x, F: simplex[0].f, Evals: evals, Converged: true}, nil
		}
		// Centroid of all but the worst.
		for i := range centroid {
			centroid[i] = 0
		}
		for _, v := range simplex[:dim] {
			for i := range centroid {
				centroid[i] += v.x[i] / float64(dim)
			}
		}
		worst := simplex[dim]
		reflect := make([]float64, dim)
		for i := range reflect {
			reflect[i] = centroid[i] + alpha*(centroid[i]-worst.x[i])
		}
		fr := eval(reflect)
		switch {
		case fr < simplex[0].f:
			// Try expanding.
			expand := make([]float64, dim)
			for i := range expand {
				expand[i] = centroid[i] + gamma*(reflect[i]-centroid[i])
			}
			fe := eval(expand)
			if fe < fr {
				simplex[dim] = vertex{x: expand, f: fe}
			} else {
				simplex[dim] = vertex{x: reflect, f: fr}
			}
		case fr < simplex[dim-1].f:
			simplex[dim] = vertex{x: reflect, f: fr}
		default:
			// Contract.
			contract := make([]float64, dim)
			for i := range contract {
				contract[i] = centroid[i] + rho*(worst.x[i]-centroid[i])
			}
			fc := eval(contract)
			if fc < worst.f {
				simplex[dim] = vertex{x: contract, f: fc}
			} else {
				// Shrink toward the best.
				for j := 1; j <= dim; j++ {
					for i := range simplex[j].x {
						simplex[j].x[i] = simplex[0].x[i] + sigma*(simplex[j].x[i]-simplex[0].x[i])
					}
					simplex[j].f = eval(simplex[j].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return Result{X: simplex[0].x, F: simplex[0].f, Evals: evals, Converged: false}, nil
}

// GridSearch evaluates f on a regular grid with pointsPerDim samples per
// dimension inside bounds and returns the best point. It is used to seed
// NelderMead away from local minima.
func GridSearch(f Objective, bounds Bounds, pointsPerDim int) (Result, error) {
	dim := len(bounds.Lo)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty bounds")
	}
	if err := bounds.Validate(dim); err != nil {
		return Result{}, err
	}
	if pointsPerDim < 2 {
		pointsPerDim = 2
	}
	idx := make([]int, dim)
	x := make([]float64, dim)
	best := Result{F: math.Inf(1)}
	total := 1
	for i := 0; i < dim; i++ {
		total *= pointsPerDim
	}
	for n := 0; n < total; n++ {
		k := n
		for i := 0; i < dim; i++ {
			idx[i] = k % pointsPerDim
			k /= pointsPerDim
			x[i] = bounds.Lo[i] + (bounds.Hi[i]-bounds.Lo[i])*float64(idx[i])/float64(pointsPerDim-1)
		}
		v := f(x)
		best.Evals++
		if v < best.F {
			best.F = v
			best.X = append([]float64(nil), x...)
		}
	}
	best.Converged = true
	return best, nil
}

// GridSearchParallel is GridSearch with the grid split across workers
// goroutines (<= 0 means GOMAXPROCS). f must be safe for concurrent calls.
// The result is deterministic and identical to sequential GridSearch for a
// deterministic f: every grid value is collected by index and the minimum
// scan walks the same index order, so ties break the same way at any worker
// count.
func GridSearchParallel(f Objective, bounds Bounds, pointsPerDim, workers int) (Result, error) {
	dim := len(bounds.Lo)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty bounds")
	}
	if err := bounds.Validate(dim); err != nil {
		return Result{}, err
	}
	if pointsPerDim < 2 {
		pointsPerDim = 2
	}
	total := 1
	for i := 0; i < dim; i++ {
		total *= pointsPerDim
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	// gridPoint expands flat index n into coordinates, writing into x.
	gridPoint := func(n int, x []float64) {
		k := n
		for i := 0; i < dim; i++ {
			idx := k % pointsPerDim
			k /= pointsPerDim
			x[i] = bounds.Lo[i] + (bounds.Hi[i]-bounds.Lo[i])*float64(idx)/float64(pointsPerDim-1)
		}
	}
	vals := make([]float64, total)
	if workers == 1 {
		x := make([]float64, dim)
		for n := 0; n < total; n++ {
			gridPoint(n, x)
			vals[n] = f(x)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float64, dim)
				for {
					n := int(next.Add(1)) - 1
					if n >= total {
						return
					}
					gridPoint(n, x)
					vals[n] = f(x)
				}
			}()
		}
		wg.Wait()
	}
	best := Result{F: math.Inf(1), Evals: total, Converged: true}
	bestN := -1
	for n, v := range vals {
		if v < best.F {
			best.F = v
			bestN = n
		}
	}
	if bestN >= 0 {
		best.X = make([]float64, dim)
		gridPoint(bestN, best.X)
	}
	return best, nil
}

// GridSearchTopK evaluates f on a regular grid like GridSearchParallel but
// returns the k best points in ascending objective order. Ties keep the
// lower flat grid index, and every value is collected by index before the
// selection scan, so the output is identical at any worker count. The
// returned evals is the total number of objective calls (the full grid).
func GridSearchTopK(f Objective, bounds Bounds, pointsPerDim, k, workers int) (best []Result, evals int, err error) {
	dim := len(bounds.Lo)
	if dim == 0 {
		return nil, 0, errors.New("optimize: empty bounds")
	}
	if err := bounds.Validate(dim); err != nil {
		return nil, 0, err
	}
	if pointsPerDim < 2 {
		pointsPerDim = 2
	}
	if k < 1 {
		k = 1
	}
	total := 1
	for i := 0; i < dim; i++ {
		total *= pointsPerDim
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	gridPoint := func(n int, x []float64) {
		kk := n
		for i := 0; i < dim; i++ {
			idx := kk % pointsPerDim
			kk /= pointsPerDim
			x[i] = bounds.Lo[i] + (bounds.Hi[i]-bounds.Lo[i])*float64(idx)/float64(pointsPerDim-1)
		}
	}
	vals := make([]float64, total)
	if workers == 1 {
		x := make([]float64, dim)
		for n := 0; n < total; n++ {
			gridPoint(n, x)
			vals[n] = f(x)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float64, dim)
				for {
					n := int(next.Add(1)) - 1
					if n >= total {
						return
					}
					gridPoint(n, x)
					vals[n] = f(x)
				}
			}()
		}
		wg.Wait()
	}
	if k > total {
		k = total
	}
	// Partial selection: walk indices ascending and insert strictly better
	// values, so equal values keep the earliest index.
	type scored struct {
		n int
		v float64
	}
	top := make([]scored, 0, k)
	for n, v := range vals {
		if len(top) == k && v >= top[k-1].v {
			continue
		}
		pos := len(top)
		for pos > 0 && v < top[pos-1].v {
			pos--
		}
		if len(top) < k {
			top = append(top, scored{})
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = scored{n: n, v: v}
	}
	best = make([]Result, len(top))
	for i, s := range top {
		x := make([]float64, dim)
		gridPoint(s.n, x)
		best[i] = Result{X: x, F: s.v, Converged: true}
	}
	return best, total, nil
}

// CascadeLevel describes one resolution level of MinimizeCascade. Levels
// run coarsest first: each level seeds from the previous level's survivors
// (re-evaluated under its own objective) plus, optionally, its own grid
// search, refines the best of them with Nelder-Mead, and promotes its TopK
// best points to the next level.
type CascadeLevel struct {
	// F is the objective at this level's resolution. Values are only
	// comparable within a level; survivors are always re-scored when they
	// cross into the next one.
	F Objective
	// GridPoints per dimension for this level's seeding grid; 0 skips
	// seeding and the level works from carried survivors / warm starts
	// alone.
	GridPoints int
	// GridBounds optionally confines the seeding grid to a sub-box of the
	// search bounds (a trust region); nil means the full bounds. Simplex
	// refinement always runs against the full bounds (subject to Shrink),
	// so a misplaced trust region slows the solve but cannot trap it.
	GridBounds *Bounds
	// TopK points survive this level (default 1).
	TopK int
	// RefineTop bounds how many of the kept points get simplex refinement
	// (default: all TopK). Lets a coarse level promote runner-up basins
	// without paying to polish them.
	RefineTop int
	// Shrink, on levels after the first, tightens the simplex bounds to
	// this fraction of the full box extent centered on each refined point.
	// Outside (0, 1) the full bounds are used.
	Shrink float64
	// NelderMead is this level's simplex budget; MaxEvals <= 0 skips
	// refinement at this level entirely.
	NelderMead NelderMeadOptions
	// Workers parallelizes the seeding grid (<= 0 means GOMAXPROCS).
	Workers int
}

// MinimizeCascade runs a coarse-to-fine minimization: cheap low-resolution
// objectives explore, the final full-resolution objective polishes. warm
// points (clamped into bounds) join the first level's candidate set — a
// population prior's prediction slots in here. The result is the best
// survivor of the last level under the last level's objective, with Evals
// totalled across every level. For deterministic objectives the outcome is
// bit-identical at any worker count.
func MinimizeCascade(bounds Bounds, warm [][]float64, levels []CascadeLevel) (Result, error) {
	dim := len(bounds.Lo)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty bounds")
	}
	if err := bounds.Validate(dim); err != nil {
		return Result{}, err
	}
	if len(levels) == 0 {
		return Result{}, errors.New("optimize: cascade needs at least one level")
	}
	for _, lv := range levels {
		if lv.F == nil {
			return Result{}, errors.New("optimize: cascade level without objective")
		}
	}
	type cand struct {
		x []float64
		f float64
	}
	// Stable insertion sort by value: candidate append order is
	// deterministic, so ties resolve the same way every run.
	sortCands := func(cs []cand) {
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j].f < cs[j-1].f; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
	}
	totalEvals := 0
	var survivors []cand
	for li, lv := range levels {
		topK := lv.TopK
		if topK < 1 {
			topK = 1
		}
		var cands []cand
		if li == 0 {
			for _, w := range warm {
				if len(w) != dim {
					return Result{}, errors.New("optimize: warm-start dimension mismatch")
				}
				x := append([]float64(nil), w...)
				bounds.Clamp(x)
				cands = append(cands, cand{x: x, f: lv.F(x)})
				totalEvals++
			}
		} else {
			for _, s := range survivors {
				cands = append(cands, cand{x: s.x, f: lv.F(s.x)})
				totalEvals++
			}
		}
		if lv.GridPoints > 0 {
			gb := bounds
			if lv.GridBounds != nil {
				gb = *lv.GridBounds
			}
			top, evals, err := GridSearchTopK(lv.F, gb, lv.GridPoints, topK, lv.Workers)
			if err != nil {
				return Result{}, err
			}
			totalEvals += evals
			for _, r := range top {
				cands = append(cands, cand{x: r.X, f: r.F})
			}
		}
		if len(cands) == 0 {
			return Result{}, errors.New("optimize: cascade level has no candidates")
		}
		sortCands(cands)
		if len(cands) > topK {
			cands = cands[:topK]
		}
		if lv.NelderMead.MaxEvals > 0 {
			refine := lv.RefineTop
			if refine <= 0 || refine > len(cands) {
				refine = len(cands)
			}
			for i := 0; i < refine; i++ {
				b := bounds
				if li > 0 && lv.Shrink > 0 && lv.Shrink < 1 {
					b = shrinkAround(bounds, cands[i].x, lv.Shrink)
				}
				r, err := NelderMead(lv.F, cands[i].x, b, lv.NelderMead)
				if err != nil {
					return Result{}, err
				}
				totalEvals += r.Evals
				if r.F < cands[i].f {
					cands[i] = cand{x: r.X, f: r.F}
				}
			}
			sortCands(cands)
		}
		survivors = cands
	}
	best := survivors[0]
	return Result{X: best.x, F: best.f, Evals: totalEvals, Converged: true}, nil
}

// shrinkAround returns bounds tightened to frac of the full extent per
// dimension, centered on x and clipped into the original box.
func shrinkAround(bounds Bounds, x []float64, frac float64) Bounds {
	dim := len(bounds.Lo)
	out := Bounds{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		h := 0.5 * frac * (bounds.Hi[i] - bounds.Lo[i])
		lo, hi := x[i]-h, x[i]+h
		if lo < bounds.Lo[i] {
			lo = bounds.Lo[i]
		}
		if hi > bounds.Hi[i] {
			hi = bounds.Hi[i]
		}
		out.Lo[i], out.Hi[i] = lo, hi
	}
	return out
}

// MinimizeParallel runs GridSearchParallel then refines the best grid
// point with NelderMead — the composite strategy the sensor-fusion module
// uses for E=(a,b,c). The seeding grid is evaluated by workers concurrent
// goroutines (<= 0 means GOMAXPROCS; the simplex refinement is inherently
// sequential either way). f must be safe for concurrent calls
// when workers != 1. For a deterministic f the result is bit-identical at
// every worker count.
func MinimizeParallel(f Objective, bounds Bounds, gridPoints, workers int, opt NelderMeadOptions) (Result, error) {
	seed, err := GridSearchParallel(f, bounds, gridPoints, workers)
	if err != nil {
		return Result{}, err
	}
	res, err := NelderMead(f, seed.X, bounds, opt)
	if err != nil {
		return Result{}, err
	}
	res.Evals += seed.Evals
	if seed.F < res.F {
		res.X, res.F = seed.X, seed.F
	}
	return res, nil
}

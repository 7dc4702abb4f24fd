package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i < len(x)-1; i++ {
		s += 100*math.Pow(x[i+1]-x[i]*x[i], 2) + math.Pow(1-x[i], 2)
	}
	return s
}

func box(dim int, lo, hi float64) Bounds {
	b := Bounds{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		b.Lo[i], b.Hi[i] = lo, hi
	}
	return b
}

func TestNelderMeadSphere(t *testing.T) {
	res, err := NelderMead(sphere, []float64{2, -1.5, 0.7}, box(3, -5, 5), NelderMeadOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-8 {
		t.Errorf("sphere minimum %g at %v", res.F, res.X)
	}
	if !res.Converged {
		t.Error("should converge on the sphere")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	res, err := NelderMead(rosenbrock, []float64{-1.2, 1}, box(2, -5, 5),
		NelderMeadOptions{Tol: 1e-14, MaxEvals: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("rosenbrock minimum at %v, want (1,1)", res.X)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Unconstrained minimum at (3,3) but the box caps at 1.
	f := func(x []float64) float64 {
		return math.Pow(x[0]-3, 2) + math.Pow(x[1]-3, 2)
	}
	res, err := NelderMead(f, []float64{0, 0}, box(2, -1, 1), NelderMeadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Errorf("dimension %d escaped bounds: %g", i, v)
		}
	}
	if math.Abs(res.X[0]-1) > 0.01 || math.Abs(res.X[1]-1) > 0.01 {
		t.Errorf("bounded minimum at %v, want (1,1)", res.X)
	}
}

func TestNelderMeadErrors(t *testing.T) {
	if _, err := NelderMead(sphere, nil, Bounds{}, NelderMeadOptions{}); err == nil {
		t.Error("empty start should fail")
	}
	if _, err := NelderMead(sphere, []float64{0}, Bounds{Lo: []float64{1}, Hi: []float64{0}}, NelderMeadOptions{}); err == nil {
		t.Error("inverted bounds should fail")
	}
}

func TestGridSearch(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Pow(x[0]-0.25, 2) + math.Pow(x[1]+0.5, 2)
	}
	res, err := GridSearch(f, box(2, -1, 1), 21)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.25) > 0.1 || math.Abs(res.X[1]+0.5) > 0.1 {
		t.Errorf("grid best at %v", res.X)
	}
	if res.Evals != 21*21 {
		t.Errorf("evals %d, want 441", res.Evals)
	}
}

func TestMinimizeEscapesLocalMinimum(t *testing.T) {
	// Two basins; the global one is narrow at x=2, a broad local one at
	// x=-2. Pure Nelder-Mead from 0 with a small step may fall into
	// either; grid seeding must find the global one.
	f := func(x []float64) float64 {
		v := x[0]
		return math.Min(math.Pow(v+2, 2)+0.5, 3*math.Pow(v-2, 2))
	}
	res, err := MinimizeParallel(f, box(1, -5, 5), 41, 1, NelderMeadOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-3 {
		t.Errorf("global minimum missed: %v (f=%g)", res.X, res.F)
	}
}

func TestMinimizeNeverWorseThanGrid(t *testing.T) {
	f := func(seed int64) bool {
		shift := float64(seed%7) / 3
		obj := func(x []float64) float64 { return math.Abs(x[0]-shift) + sphere(x[1:]) }
		grid, err := GridSearch(obj, box(2, -2, 2), 9)
		if err != nil {
			return false
		}
		full, err := MinimizeParallel(obj, box(2, -2, 2), 9, 1, NelderMeadOptions{})
		if err != nil {
			return false
		}
		return full.F <= grid.F+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBoundsClamp(t *testing.T) {
	b := box(2, 0, 1)
	x := []float64{-5, 0.5}
	b.Clamp(x)
	if x[0] != 0 || x[1] != 0.5 {
		t.Errorf("clamp gave %v", x)
	}
}

func TestGridSearchParallelMatchesSequential(t *testing.T) {
	// A surface with deliberate ties (plateaus) so tie-breaking order is
	// observable: the parallel scan must pick the same flat-index winner as
	// the sequential one at every worker count.
	f := func(x []float64) float64 {
		return math.Floor(2*math.Abs(x[0])) + math.Floor(2*math.Abs(x[1]))
	}
	want, err := GridSearch(f, box(2, -1, 1), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := GridSearchParallel(f, box(2, -1, 1), 9, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.F != want.F || got.Evals != want.Evals {
			t.Errorf("workers=%d: F=%v evals=%d, want F=%v evals=%d",
				workers, got.F, got.Evals, want.F, want.Evals)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Errorf("workers=%d: X=%v, want %v (tie broken differently)", workers, got.X, want.X)
				break
			}
		}
	}
}

func TestGridSearchTopK(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Pow(x[0]-0.25, 2) + math.Pow(x[1]+0.5, 2)
	}
	top, evals, err := GridSearchTopK(f, box(2, -1, 1), 21, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 21*21 {
		t.Errorf("evals %d, want 441", evals)
	}
	if len(top) != 3 {
		t.Fatalf("got %d results, want 3", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].F < top[i-1].F {
			t.Errorf("results not ascending: %v", []float64{top[0].F, top[1].F, top[2].F})
		}
	}
	best, err := GridSearch(f, box(2, -1, 1), 21)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].F != best.F || top[0].X[0] != best.X[0] || top[0].X[1] != best.X[1] {
		t.Errorf("top-1 %v (f=%g) disagrees with GridSearch %v (f=%g)", top[0].X, top[0].F, best.X, best.F)
	}
	// k larger than the grid caps at the grid size.
	small, _, err := GridSearchTopK(sphere, box(1, -1, 1), 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 2 {
		t.Errorf("got %d results from a 2-point grid, want 2", len(small))
	}
}

func TestGridSearchTopKDeterministicAcrossWorkers(t *testing.T) {
	// Plateaus force ties; every worker count must keep the same order.
	f := func(x []float64) float64 {
		return math.Floor(2*math.Abs(x[0])) + math.Floor(2*math.Abs(x[1]))
	}
	want, _, err := GridSearchTopK(f, box(2, -1, 1), 9, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, _, err := GridSearchTopK(f, box(2, -1, 1), 9, 4, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i].F != want[i].F || got[i].X[0] != want[i].X[0] || got[i].X[1] != want[i].X[1] {
				t.Errorf("workers=%d: result %d = %v (f=%g), want %v (f=%g)",
					workers, i, got[i].X, got[i].F, want[i].X, want[i].F)
			}
		}
	}
}

// quantize coarsens an objective: same basins, degraded local detail —
// the shape a decimated-measurement objective has.
func quantize(f Objective, step float64) Objective {
	return func(x []float64) float64 {
		return step * math.Floor(f(x)/step)
	}
}

func TestMinimizeCascadeFindsGlobalBasin(t *testing.T) {
	// Narrow global basin at x=2, broad local one at x=-2 (the
	// TestMinimizeEscapesLocalMinimum surface). The coarse level sees only
	// a quantized view but must still route the fine level to the right
	// basin.
	f := func(x []float64) float64 {
		v := x[0]
		return math.Min(math.Pow(v+2, 2)+0.5, 3*math.Pow(v-2, 2))
	}
	res, err := MinimizeCascade(box(1, -5, 5), nil, []CascadeLevel{
		{F: quantize(f, 0.05), GridPoints: 41, TopK: 2, RefineTop: 1,
			NelderMead: NelderMeadOptions{Tol: 1e-6, MaxEvals: 60}},
		{F: f, Shrink: 0.2, NelderMead: NelderMeadOptions{Tol: 1e-12, MaxEvals: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-3 {
		t.Errorf("global minimum missed: %v (f=%g)", res.X, res.F)
	}
	if res.Evals <= 41 {
		t.Errorf("evals %d should include every level", res.Evals)
	}
}

func TestMinimizeCascadeWarmStartWins(t *testing.T) {
	// No grid at all: the warm start is the only seed, so the cascade must
	// carry it through both levels.
	shift := []float64{0.4, -0.3}
	f := func(x []float64) float64 {
		return math.Pow(x[0]-shift[0], 2) + math.Pow(x[1]-shift[1], 2)
	}
	res, err := MinimizeCascade(box(2, -2, 2), [][]float64{{0.5, -0.5}}, []CascadeLevel{
		{F: quantize(f, 0.01), NelderMead: NelderMeadOptions{Tol: 1e-6, MaxEvals: 80}},
		{F: f, Shrink: 0.3, NelderMead: NelderMeadOptions{Tol: 1e-12, MaxEvals: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-shift[0]) > 1e-4 || math.Abs(res.X[1]-shift[1]) > 1e-4 {
		t.Errorf("cascade from warm start found %v, want %v", res.X, shift)
	}
}

func TestMinimizeCascadeTrustRegionCannotTrap(t *testing.T) {
	// The trust region points at the wrong basin; the simplex runs on the
	// full bounds, so the fine level still reaches the true minimum region.
	f := func(x []float64) float64 {
		return math.Pow(x[0]-1.5, 2)
	}
	tr := box(1, -2, -1) // excludes the minimum at 1.5
	res, err := MinimizeCascade(box(1, -2, 2), nil, []CascadeLevel{
		{F: f, GridPoints: 5, GridBounds: &tr,
			NelderMead: NelderMeadOptions{Tol: 1e-10, MaxEvals: 200}},
		{F: f, NelderMead: NelderMeadOptions{Tol: 1e-12, MaxEvals: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1.5) > 1e-3 {
		t.Errorf("trust region trapped the solve at %v", res.X)
	}
}

func TestMinimizeCascadeNeverWorseThanSeeds(t *testing.T) {
	f := func(seed int64) bool {
		shift := float64(seed%7) / 3
		obj := func(x []float64) float64 { return math.Abs(x[0]-shift) + sphere(x[1:]) }
		grid, err := GridSearch(obj, box(2, -2, 2), 9)
		if err != nil {
			return false
		}
		res, err := MinimizeCascade(box(2, -2, 2), nil, []CascadeLevel{
			{F: quantize(obj, 0.1), GridPoints: 9, TopK: 2,
				NelderMead: NelderMeadOptions{MaxEvals: 40}},
			{F: obj, Shrink: 0.25, NelderMead: NelderMeadOptions{MaxEvals: 120}},
		})
		if err != nil {
			return false
		}
		return res.F <= grid.F+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeCascadeDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Result {
		res, err := MinimizeCascade(box(2, -2, 2), [][]float64{{1, 1}}, []CascadeLevel{
			{F: quantize(rosenbrock, 0.05), GridPoints: 7, TopK: 3, RefineTop: 1,
				Workers: workers, NelderMead: NelderMeadOptions{MaxEvals: 50}},
			{F: rosenbrock, Shrink: 0.2, NelderMead: NelderMeadOptions{MaxEvals: 150}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.F != want.F || got.Evals != want.Evals || got.X[0] != want.X[0] || got.X[1] != want.X[1] {
			t.Errorf("workers=%d: %v f=%g evals=%d, want %v f=%g evals=%d",
				workers, got.X, got.F, got.Evals, want.X, want.F, want.Evals)
		}
	}
}

func TestMinimizeCascadeErrors(t *testing.T) {
	if _, err := MinimizeCascade(box(1, -1, 1), nil, nil); err == nil {
		t.Error("no levels should fail")
	}
	if _, err := MinimizeCascade(box(1, -1, 1), nil, []CascadeLevel{{}}); err == nil {
		t.Error("nil level objective should fail")
	}
	if _, err := MinimizeCascade(box(1, -1, 1), [][]float64{{0, 0}}, []CascadeLevel{{F: sphere}}); err == nil {
		t.Error("warm-start dimension mismatch should fail")
	}
	if _, err := MinimizeCascade(box(1, -1, 1), nil, []CascadeLevel{{F: sphere}}); err == nil {
		t.Error("no grid, no warm starts, no survivors should fail")
	}
}

func TestMinimizeParallelMatchesMinimize(t *testing.T) {
	want, err := MinimizeParallel(rosenbrock, box(2, -2, 2), 5, 1, NelderMeadOptions{MaxEvals: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := MinimizeParallel(rosenbrock, box(2, -2, 2), 5, workers, NelderMeadOptions{MaxEvals: 200})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.F != want.F || got.Evals != want.Evals {
			t.Errorf("workers=%d: F=%v evals=%d, want F=%v evals=%d",
				workers, got.F, got.Evals, want.F, want.Evals)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Errorf("workers=%d: X=%v, want %v", workers, got.X, want.X)
				break
			}
		}
	}
}

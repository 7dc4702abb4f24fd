package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the exported package-level identifiers and
// methods under internal/ that no non-test code references but that stay
// on purpose. Keys are "<package dir under internal/>.<Name>" or
// "<package dir under internal/>.<Type>.<Method>"; every value says why.
var deadExportAllowlist = map[string]string{
	// Test signals and references that other packages' tests build on.
	"dsp.Tone":                   "test tone for the acoustic, render, stream and uniq tests",
	"dsp.GaussianNoise":          "additive noise for the core beamforming tests",
	"dsp.DelayedImpulse":         "band-limited impulse that core, hrtf, render and uniq tests synthesize HRIRs from",
	"dsp.FFT":                    "complex-transform reference for the plan tests; BenchmarkFFTWrapper measures it",
	"dsp.Mean":                   "averaging helper of the core AoA tests",
	"sim.MeasureGroundTruthNear": "near-field ground truth for the core near/far tests and the root benchmarks",
	"optimize.GridSearch":        "sequential reference that GridSearchParallel is tested against",
	"hrtf.BinauralCorrelation":   "two-ear similarity metric of the core near/far tests",
	"dsp.FindPeaks":              "peak list the core near-field tests count; reference for FirstPeak's one-scan search",
	"head.Model.FarFieldITD":     "far-field ITD that the head, acoustic and core near/far tests check delays against",
	"cluster.Ring.Owner":         "single-owner lookup the ring, routing and gateway tests and FuzzRingOwner check placement with",
	// Paper reproductions that only tests run.
	"core.BlindDecouple":            "§4.3 negative result: blind source/channel decoupling",
	"core.DefaultBeamformingDesign": "§4.3 negative result: earbud beamforming design",
	"core.EvaluateBeamforming":      "§4.3 negative result: earbud beamforming evaluation",
	"core.ProbePinna":               "Fig 2a pinna-response probe",
	"core.TrainLambda":              "eq 11 lambda training behind the AoA tests",
	"acoustic.World.ShadowSNRScale": "§5 head shadow: the creeping arc that degrades right-ear accuracy near 90°",
	// Functions behind bench.json kernels.
	"core.FuseSensors":        "fuseSensors and fuseSensors/fast records",
	"stream.NewConvolver":     "stream/convolver record (Scene builds its convolvers unexported)",
	"segstore.Store.PutBatch": "store/bulkload and store/coldread records",
	// Kept for planned work listed in ROADMAP.md.
	"hrtf.SpectralDistortion": "log-spectral distortion for the planned quality ledger",
	"obs.WithLogAttrs":        "per-request log attributes for the planned request tracing",
	// Tooling.
	"wav.EncodeMono": "writes the mono WAVs used to drive uniqctl stream by hand",
	// Methods that only their own tests call; deleting one deletes its test.
	"geom.Boundary.SweepGrid":      "TestSweepGridMatchesPointQueries",
	"head.Model.SurfaceArcBetween": "TestSurfaceArcBetween",
	"hrtf.HRIR.ILD":                "TestILDSign",
	"hrtf.Table.InvalidateCaches":  "TestFarITDsCachedAndInvalidated; the mutation contract of Table's lazily built caches names it",
}

// TestNoDeadExports fails when an exported package-level func, type, var
// or const, or an exported method of an exported type, declared in a
// non-test file under internal/ is used by no non-test file in the
// repository (bench/, cmd/, examples/ and uniq/ included) and is not in
// deadExportAllowlist. It also fails on allowlist entries that no longer
// exist or have gained a caller, so the list only shrinks. A method counts
// as used when any non-test file selects its name (x.Name), whatever x is;
// struct fields are out of scope.
func TestNoDeadExports(t *testing.T) {
	decls, used := scanExports(t, ".")
	var dead []string
	for key := range decls {
		_, allowed := deadExportAllowlist[key]
		switch {
		case used[key] && allowed:
			t.Errorf("%s is allowlisted as unused but now has a non-test caller; drop it from deadExportAllowlist", key)
		case !used[key] && !allowed:
			dead = append(dead, key+" ("+decls[key]+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no non-test reference: delete it, unexport it, or allowlist it with a reason", d)
	}
	for key := range deadExportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s no longer names an exported internal/ declaration; drop it", key)
		}
	}
}

// scanExports parses every non-test Go file under root. It returns the
// exported package-level declarations of internal/ packages and the
// exported methods of their exported types (key → file position), and the
// set of those keys that some file uses. A package-level name is used when
// a file references it, other than by the declaration itself or a method
// receiver; a method is used when a file selects its name.
func scanExports(t *testing.T, root string) (decls map[string]string, used map[string]bool) {
	t.Helper()
	decls = map[string]string{}
	refs := map[string]bool{}
	methods := map[string]string{} // key → method name
	selected := map[string]bool{}  // every name some file selects
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// own is the key prefix of the file's package ("internal/dsp" →
		// "dsp"), or "" outside internal/.
		own, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(p)), "internal/")
		if !ok {
			own = ""
		}
		add := func(id *ast.Ident) {
			if own != "" && id.IsExported() {
				decls[own+"."+id.Name] = fset.Position(id.Pos()).String()
			}
		}
		// Qualified references go through the file's imports of internal/.
		imports := map[string]string{} // local name → key prefix
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if rest, ok := strings.CutPrefix(ip, "repro/internal/"); ok {
				local := path.Base(rest)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = rest
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
			}
			return true
		})
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				// The name and the receiver are not walked; inside the
				// body, a reference back to the func itself (recursion) or
				// to a method's own type does not count either.
				self := d.Name.Name
				if d.Recv == nil {
					add(d.Name)
				} else {
					self = recvType(d.Recv)
					if own != "" && ast.IsExported(self) && d.Name.IsExported() {
						key := own + "." + self + "." + d.Name.Name
						decls[key] = fset.Position(d.Name.Pos()).String()
						methods[key] = d.Name.Name
					}
				}
				visit := refVisitor(own, self, imports, refs)
				ast.Inspect(d.Type, visit)
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
						visit := refVisitor(own, spec.Name.Name, imports, refs)
						if spec.TypeParams != nil {
							ast.Inspect(spec.TypeParams, visit)
						}
						ast.Inspect(spec.Type, visit)
					case *ast.ValueSpec:
						visit := refVisitor(own, "", imports, refs)
						for _, id := range spec.Names {
							add(id)
						}
						if spec.Type != nil {
							ast.Inspect(spec.Type, visit)
						}
						for _, v := range spec.Values {
							ast.Inspect(v, visit)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used = refs
	for key, name := range methods {
		used[key] = selected[name]
	}
	return decls, used
}

// refVisitor returns an ast.Inspect visitor that records references to
// internal/ identifiers: pkg.Name through an import, or a bare Name inside
// the internal/ package own ("" outside internal/). A bare self is skipped.
func refVisitor(own, self string, imports map[string]string, refs map[string]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					refs[pkg+"."+n.Sel.Name] = true
					return false
				}
			}
			// x.Field or x.Method: only the operand can name a package-level
			// identifier.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			// Parameter, result and field names declare, they do not refer.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.CompositeLit:
			if n.Type != nil {
				ast.Inspect(n.Type, visit)
			}
			_, isMap := n.Type.(*ast.MapType)
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && !isMap && n.Type != nil {
					if _, ok := kv.Key.(*ast.Ident); ok {
						// A struct literal's field name.
						ast.Inspect(kv.Value, visit)
						continue
					}
				}
				ast.Inspect(e, visit)
			}
			return false
		case *ast.Ident:
			if own != "" && n.Name != self && n.IsExported() {
				refs[own+"."+n.Name] = true
			}
		}
		return true
	}
	return visit
}

// recvType returns the base type name of a method receiver.
func recvType(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	e := recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

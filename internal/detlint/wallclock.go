package detlint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Wallclock forbids wall-clock reads, wall-clock timers and globally-seeded
// randomness in packages the deterministic simulator executes. Protocol code
// must take time from Sim.Now / Proc.Now, delays from Proc.Sleep /
// Sim.After, and randomness from an explicitly seeded rand.Rand — otherwise
// two runs with the same seed diverge and the byte-for-byte determinism
// gate (cmd/fsbench's TestGate) turns red.
//
// Any mention of the forbidden functions is flagged, including passing one
// as a value. Constructing a seeded generator (rand.New, rand.NewSource,
// rand.NewPCG) stays legal; only the package-global convenience functions
// and the wall-clock readers are banned. No file is exempt: the simulator
// runtime is governed like the code it schedules.
var Wallclock = &analysis.Analyzer{
	Name:     "wallclock",
	Doc:      "forbid wall-clock time and global randomness in simulator-visible packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runWallclock,
}

func init() {
	addListFlag(&Wallclock.Flags, &conf.SimPackages, "packages",
		"comma-separated import paths the analyzer governs")
}

// forbiddenWallclock maps package path -> function name -> replacement hint.
var forbiddenWallclock = map[string]map[string]string{
	"time": {
		"Now":       "Sim.Now / Proc.Now",
		"Since":     "Proc.Now arithmetic",
		"Until":     "Proc.Now arithmetic",
		"Sleep":     "Proc.Sleep",
		"After":     "Sim.After",
		"AfterFunc": "Sim.After",
		"Tick":      "Sim.After rearmed",
		"NewTimer":  "Sim.After",
		"NewTicker": "Sim.After rearmed",
	},
	"math/rand":    globalRandFuncs,
	"math/rand/v2": globalRandFuncs,
}

// globalRandFuncs are the process-globally seeded convenience functions of
// math/rand and math/rand/v2. The seeded constructors (New, NewSource,
// NewPCG, NewChaCha8, NewZipf) are deliberately absent.
var globalRandFuncs = map[string]string{
	"Int": "a seeded *rand.Rand", "Intn": "a seeded *rand.Rand",
	"IntN": "a seeded *rand.Rand", "Int31": "a seeded *rand.Rand",
	"Int31n": "a seeded *rand.Rand", "Int32": "a seeded *rand.Rand",
	"Int32N": "a seeded *rand.Rand", "Int63": "a seeded *rand.Rand",
	"Int63n": "a seeded *rand.Rand", "Int64": "a seeded *rand.Rand",
	"Int64N": "a seeded *rand.Rand", "Uint32": "a seeded *rand.Rand",
	"Uint32N": "a seeded *rand.Rand", "Uint64": "a seeded *rand.Rand",
	"Uint64N": "a seeded *rand.Rand", "UintN": "a seeded *rand.Rand",
	"Uint": "a seeded *rand.Rand", "N": "a seeded *rand.Rand",
	"Float32": "a seeded *rand.Rand", "Float64": "a seeded *rand.Rand",
	"ExpFloat64": "a seeded *rand.Rand", "NormFloat64": "a seeded *rand.Rand",
	"Perm": "a seeded *rand.Rand", "Shuffle": "a seeded *rand.Rand",
	"Seed": "a seeded *rand.Rand", "Read": "a seeded *rand.Rand",
}

func runWallclock(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	r := newReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if isTestFile(pass.Fset.Position(sel.Pos()).Filename) {
			return
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return
		}
		if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
		}
		byName := forbiddenWallclock[obj.Pkg().Path()]
		if byName == nil {
			return
		}
		if hint, bad := byName[obj.Name()]; bad {
			r.reportf(sel.Pos(), "%s.%s in a simulator-visible package breaks seeded determinism; use %s",
				obj.Pkg().Path(), obj.Name(), hint)
		}
	})
	return nil, nil
}

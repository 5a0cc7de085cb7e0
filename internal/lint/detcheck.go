package lint

import (
	"go/ast"
	"go/types"
)

// DetCheck polices the deterministic-simulation packages. The crash-point
// sweep (TestCrashPointSweep) and the differential fuzzer are only
// trustworthy because a failing seed replays identically; one stray wall
// clock read or unseeded random draw breaks that contract silently.
//
// Inside its full scope (internal/netsim and the cluster crash-sweep
// harness, _test.go files included — the harness *is* test code) it
// forbids:
//
//   - time.Now / time.Since / time.Sleep / time.After / timers and tickers
//     — wall-clock time. Route through the netsim clock (netsim.SetClock /
//     netsim.Delay), which a test can replace with a virtual clock.
//   - package-level math/rand functions (rand.Intn, rand.Int63, ...) and
//     math/rand/v2 equivalents — unseeded global randomness. Use an
//     explicit rand.New(rand.NewSource(seed)) instance.
//   - ranging over a map — iteration order differs between runs. Sort the
//     keys first, or //lint:ignore detcheck with an argument for why order
//     cannot matter (e.g. a commutative reduction).
//
// Methods on a *rand.Rand instance are allowed: an instance forces the
// seed decision to the caller, which is exactly the discipline wanted.
//
// The clock scope (sinfonia, dyntx, alloc and core: every wait, deadline and
// age of the retry path) gets the first two rules on its non-test files
// only; its map ranges and tests wait for the seeded simulation.
var DetCheck = &Analyzer{
	Name:  "detcheck",
	Doc:   "no wall-clock time, global math/rand, or map-iteration-order dependence in deterministic sim code",
	Scope: detCheckScope,
	Run:   runDetCheck,
}

// detCheckPkgs lists the deterministic packages, and detClockPkgs the clock
// scope. "detcheck" and "detclock" are the fixture packages under
// testdata/src.
var (
	detCheckPkgs = map[string]bool{
		"minuet/internal/netsim":  true,
		"minuet/internal/cluster": true,
		"detcheck":                true,
	}
	detClockPkgs = map[string]bool{
		"minuet/internal/sinfonia": true,
		"minuet/internal/dyntx":    true,
		"minuet/internal/alloc":    true,
		"minuet/internal/core":     true,
		"detclock":                 true,
	}
)

func detCheckScope(pkgPath string) bool { return detCheckPkgs[pkgPath] || detClockPkgs[pkgPath] }

var detCheckTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runDetCheck(pass *Pass) {
	clockOnly := detClockPkgs[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if clockOnly && pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				checkDetCall(pass, node)
			case *ast.RangeStmt:
				if clockOnly {
					break
				}
				if tv, ok := pass.Info.Types[node.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(node.Pos(), "map iteration order is nondeterministic: sort the keys, or lint:ignore with why order cannot matter")
					}
				}
			}
			return true
		})
	}
}

func checkDetCall(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: a method on *rand.Rand has a receiver.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if detCheckTimeFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in deterministic sim code: use the netsim clock (netsim.Delay / netsim.SetClock)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors are the remedy, not the disease.
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(sel.Pos(), "global %s.%s is unseeded: use an explicit rand.New(rand.NewSource(seed)) instance", fn.Pkg().Name(), fn.Name())
	}
}

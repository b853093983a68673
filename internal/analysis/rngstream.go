package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGStream polices RNG construction in campaign/worker code (the
// fault-injection campaign package and the command-line drivers).
// Parallel campaigns are bit-identical across worker counts only
// because every trial derives its stream as a pure function of
// (seed, trial index) via des.NewRandIndexed (or Rand.SeedIndexed, which
// reseeds a stream value in place; the adaptive engine's two-level
// NewRandIndexed2 and SeedIndexed2 likewise); constructing a stream any
// other way — des.NewRand, Rand.Split (draw-order dependent), or
// math/rand sources — reintroduces schedule-dependent state.
var RNGStream = &Analyzer{
	Name: "rngstream",
	Doc: "require campaign/worker RNG streams to come from " +
		"des.NewRandIndexed",
	Run: runRNGStream,
}

// rngScopedPackages are the import-path segments in which the check
// applies: trial distribution (uniform and adaptive) and the CLI
// layers that seed it.
var rngScopedPackages = []string{"internal/fault", "internal/adapt", "cmd"}

func isRNGScoped(path string) bool {
	for _, s := range rngScopedPackages {
		if path == s {
			return true
		}
		if i := strings.Index(path, s); i >= 0 {
			end := i + len(s)
			if (i == 0 || path[i-1] == '/') && (end == len(path) || path[end] == '/') {
				return true
			}
		}
	}
	return false
}

func runRNGStream(pass *Pass) {
	if !isRNGScoped(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case isPathSuffix(fn.Pkg().Path(), desPathSuffix) && fn.Name() == "NewRand":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(call.Pos(), "des.NewRand in campaign/worker code ties the stream to call order; derive per-trial streams with des.NewRandIndexed(seed, index) so any worker interleaving replays the sequential campaign")
				}
			case isPathSuffix(fn.Pkg().Path(), desPathSuffix) && fn.Name() == "Split":
				pass.Reportf(call.Pos(), "Rand.Split derives the child from the parent's current draw position, which depends on execution order; use des.NewRandIndexed(seed, index) in campaign/worker code")
			case fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(call.Pos(), "math/rand.%s in campaign/worker code bypasses the reproducible stream seam; use des.NewRandIndexed(seed, index)", fn.Name())
				}
			}
			return true
		})
	}
}

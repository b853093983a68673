// Package analysis is a small, dependency-free static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, specialized to the
// contracts this repository enforces dynamically elsewhere:
//
//   - determinism — campaign digests are pinned bit-identical across
//     Parallelism 1/4/GOMAXPROCS, so simulation code must not consult
//     the wall clock, the global math/rand source, or map iteration
//     order (nodeterminism, rngstream);
//   - zero allocation — the warm DES/kernel hot path is gated at
//     AllocsPerRun == 0, so functions annotated //nlft:noalloc must not
//     contain constructs that heap-allocate (noalloc);
//   - pooled-handle hygiene — des.Event handles are generation-counted
//     value handles into a recycled slot pool and must be guarded with
//     Scheduled/Cancel rather than compared or left dangling
//     (eventhandle).
//
// The x/tools module is deliberately not imported: the framework loads
// type information with the standard library alone, by asking the go
// command for compiled export data (see Load) and type-checking the
// target packages from source. Analyzers are pure functions over a Pass
// and report position-tagged Diagnostics; //nlft:allow directives
// (see directives.go) suppress individual findings with a recorded
// justification.
//
// cmd/nlftvet is the multichecker driver that runs every analyzer and
// exits non-zero on findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nlft:allow directives. It must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package, reporting findings
	// through the pass.
	Run func(*Pass)
}

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed
// //nlft: directives are reported. It is not suppressible.
const DirectiveAnalyzer = "nlftdirective"

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterminism, NoAlloc, EventHandle, RNGStream, SnapshotCover, MergeCommute}
}

// A Pass carries the type-checked package being analyzed and collects
// diagnostics. Analyzers must not mutate any of its fields.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Directives holds the parsed //nlft: annotations of the package.
	Directives *Directives

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a concrete file position.
// Allowed marks a finding suppressed by an //nlft:allow directive;
// AllowReason carries the directive's recorded justification, so
// reports can audit the exemption set alongside the failures.
type Diagnostic struct {
	Pos         token.Position
	Analyzer    string
	Message     string
	Allowed     bool
	AllowReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Check runs the given analyzers over one loaded package, applies the
// package's //nlft:allow suppressions, and returns the surviving
// diagnostics sorted by position. Malformed directives are appended as
// findings of the non-suppressible pseudo-analyzer "nlftdirective".
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	all := CheckAll(pkg, analyzers)
	kept := all[:0]
	for _, d := range all {
		if !d.Allowed {
			kept = append(kept, d)
		}
	}
	return kept
}

// CheckAll is Check without the suppression filter: allow-suppressed
// diagnostics are returned too, marked Allowed and carrying their
// justification. The JSON findings artifact is built from this view.
func CheckAll(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	dirs := ParseDirectives(pkg.Fset, pkg.Files, KnownAnalyzerNames(analyzers))
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Directives: dirs,
			diags:      &diags,
		}
		a.Run(pass)
	}
	for i := range diags {
		if a := dirs.AllowFor(diags[i].Analyzer, diags[i].Pos); a != nil {
			diags[i].Allowed = true
			diags[i].AllowReason = a.Reason
		}
	}
	for _, m := range dirs.Malformed {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(m.Pos),
			Analyzer: DirectiveAnalyzer,
			Message:  m.Message,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// KnownAnalyzerNames returns the set of analyzer names //nlft:allow may
// reference, including every analyzer in the full suite even when only
// a subset runs (an allow for a non-running analyzer is dormant, not
// malformed).
func KnownAnalyzerNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers)+4)
	for _, a := range All() {
		names[a.Name] = true
	}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// calleeFunc resolves the called function of a static call expression
// (package function, method, or qualified identifier), or nil for
// dynamic calls, built-ins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// builtinName returns the name of the built-in being called (append,
// make, new, ...), or "" when the call is not a built-in.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SnapshotCover proves, structurally, that every Snapshot/Restore pair
// captures the complete mutable state of its receiver. The
// checkpoint/fork engine (internal/fault) is sound only if a restore
// rewinds *everything* that can influence the remainder of a run: one
// missed field silently corrupts forked trials in ways the digest tests
// only catch on exercised paths (the FlipBit ECC-off dirty-bit miss
// fixed in the delta-snapshot PR was exactly this class).
//
// For every type with a recognized capture pair — methods named
// Snapshot/Restore or SnapshotState/RestoreState whose first parameter
// is a pointer to the same named state struct and which return nothing —
// the analyzer enumerates the receiver's fields via go/types and
// reports any field the Snapshot body never reads or the Restore body
// never writes back. State-struct fields are held to the mirror
// condition: written during Snapshot and read back during Restore.
// Fields that are configuration, wiring, derived caches, or
// measurements rather than rewindable state are exempted per field with
// //nlft:snapshot-skip <reason>; a newly added field in a snapshotted
// struct therefore fails CI until it is either covered by the pair or
// explicitly skipped with a recorded justification. A skip that exempts
// no field of a checked struct (its pair was deleted, or it sits on a
// struct that never had one) is itself a finding.
//
// Coverage is reference-based: a field counts as covered by a method
// when the body mentions it through the receiver (or state parameter)
// directly — including promoted selections through an embedded field
// and method calls like k.proc.SnapshotState(&into.proc) that delegate
// a sub-component to its own pair. Fields touched only inside helper
// functions are not seen; route the copy through a direct selection or
// annotate the field.
var SnapshotCover = &Analyzer{
	Name: "snapshotcover",
	Doc: "require Snapshot/Restore pairs to cover every field of the " +
		"snapshotted struct unless annotated //nlft:snapshot-skip",
	Run: runSnapshotCover,
}

// capturePairs are the recognized method-name pairs.
var capturePairs = [][2]string{
	{"Snapshot", "Restore"},
	{"SnapshotState", "RestoreState"},
}

func runSnapshotCover(pass *Pass) {
	// Group the package's methods by receiver named type.
	type typeMethods struct {
		tn    *types.TypeName
		decls map[string]*ast.FuncDecl
	}
	var groups []*typeMethods
	index := make(map[*types.TypeName]*typeMethods)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			tn := namedTypeName(fn.Type().(*types.Signature).Recv().Type())
			if tn == nil {
				continue
			}
			g := index[tn]
			if g == nil {
				g = &typeMethods{tn: tn, decls: make(map[string]*ast.FuncDecl)}
				index[tn] = g
				groups = append(groups, g)
			}
			g.decls[fd.Name.Name] = fd
		}
	}

	paired := make(map[*types.TypeName]bool)
	for _, g := range groups {
		for _, pair := range capturePairs {
			if state := checkCapturePair(pass, g.tn, pair, g.decls[pair[0]], g.decls[pair[1]]); state != nil {
				paired[g.tn] = true
				paired[state] = true
			}
		}
	}
	reportOrphanSkips(pass, paired)
}

// reportOrphanSkips reports every //nlft:snapshot-skip that exempts no
// field of a checked struct: one on a field of a struct that is neither
// the receiver nor the state struct of a recognized capture pair, or one
// next to no field at all. Without this, an annotation outlives the pair
// it was written for and reads as a decision about state that nothing
// captures.
func reportOrphanSkips(pass *Pass, paired map[*types.TypeName]bool) {
	type field struct {
		owner *types.TypeName
		name  string
		pos   token.Position
	}
	var fields []field
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fields = append(fields, field{tn, f.Name(), pass.Fset.Position(f.Pos())})
		}
	}
	for _, s := range pass.Directives.SnapshotSkips {
		var orphan *field
		exempts := false
		for i := range fields {
			f := &fields[i]
			// The inverse of SnapshotSkipAt: the directive is on the
			// field's line or on the line directly above it.
			if f.pos.Filename != s.File || (f.pos.Line != s.Line && f.pos.Line != s.Line+1) {
				continue
			}
			if paired[f.owner] {
				exempts = true
				break
			}
			orphan = f
		}
		switch {
		case exempts:
		case orphan != nil:
			pass.Reportf(s.Pos, "orphaned //nlft:snapshot-skip: %s is neither the receiver nor the state struct of a Snapshot/Restore pair, so %s.%s is never checked; delete the annotation",
				orphan.owner.Name(), orphan.owner.Name(), orphan.name)
		default:
			pass.Reportf(s.Pos, "orphaned //nlft:snapshot-skip: it annotates no struct field; delete it")
		}
	}
}

// namedTypeName resolves a (possibly pointer) type to the *types.TypeName
// of its named base type, or nil.
func namedTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// captureShape reports whether fd has the capture-pair shape — first
// parameter a pointer to a named struct, no results — returning the
// state struct's type name and the parameter variable.
func captureShape(pass *Pass, fd *ast.FuncDecl) (*types.TypeName, *types.Var) {
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 0 || sig.Params().Len() == 0 {
		return nil, nil
	}
	p0 := sig.Params().At(0)
	ptr, ok := p0.Type().(*types.Pointer)
	if !ok {
		return nil, nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil, nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil, nil
	}
	return named.Obj(), p0
}

// checkCapturePair checks one capture pair of tn and returns its state
// struct, or nil when tn has no well-formed pair under these names.
func checkCapturePair(pass *Pass, tn *types.TypeName, names [2]string, snapFD, restFD *ast.FuncDecl) *types.TypeName {
	snapState, snapParam := (*types.TypeName)(nil), (*types.Var)(nil)
	restState, restParam := (*types.TypeName)(nil), (*types.Var)(nil)
	if snapFD != nil && snapFD.Body != nil {
		snapState, snapParam = captureShape(pass, snapFD)
	}
	if restFD != nil && restFD.Body != nil {
		restState, restParam = captureShape(pass, restFD)
	}
	switch {
	case snapState == nil && restState == nil:
		return nil // no capture pair under these names
	case snapState != nil && restState == nil:
		pass.Reportf(snapFD.Pos(), "%s.%s captures into *%s but %s has no mirror %s(from *%s): restores cannot rewind what this captures",
			tn.Name(), names[0], snapState.Name(), tn.Name(), names[1], snapState.Name())
		return nil
	case snapState == nil && restState != nil:
		pass.Reportf(restFD.Pos(), "%s.%s restores from *%s but %s has no mirror %s(into *%s): this rewinds state nothing captures",
			tn.Name(), names[1], restState.Name(), tn.Name(), names[0], restState.Name())
		return nil
	case snapState != restState:
		pass.Reportf(restFD.Pos(), "%s.%s restores from *%s but %s.%s captures into *%s: the pair must share one state type",
			tn.Name(), names[1], restState.Name(), tn.Name(), names[0], snapState.Name())
		return nil
	}

	// Receiver coverage: every field must be read at capture and written
	// back at restore.
	if recvStruct, ok := tn.Type().Underlying().(*types.Struct); ok {
		snapRefs := fieldRefs(pass, snapFD, recvObject(pass, snapFD), recvStruct)
		restRefs := fieldRefs(pass, restFD, recvObject(pass, restFD), recvStruct)
		reportUncovered(pass, tn, recvStruct, snapRefs,
			"field %s.%s is not captured by %s: read it there, or annotate //nlft:snapshot-skip <reason> if it is not rewindable state", names[0])
		reportUncovered(pass, tn, recvStruct, restRefs,
			"field %s.%s is not restored by %s: write it back there, or annotate //nlft:snapshot-skip <reason> if it is not rewindable state", names[1])
	}

	// State-struct coverage (only when the state type is this package's,
	// so field positions and directives are in scope).
	if snapState.Pkg() == pass.Pkg {
		if stateStruct, ok := snapState.Type().Underlying().(*types.Struct); ok {
			snapRefs := fieldRefs(pass, snapFD, snapParam, stateStruct)
			restRefs := fieldRefs(pass, restFD, restParam, stateStruct)
			reportUncovered(pass, snapState, stateStruct, snapRefs,
				"state field %s.%s is never written by %s: the pair is not mirror-symmetric (annotate //nlft:snapshot-skip <reason> if it is capture metadata, not rewound state)", names[0])
			reportUncovered(pass, snapState, stateStruct, restRefs,
				"state field %s.%s is never read back by %s: the pair is not mirror-symmetric (annotate //nlft:snapshot-skip <reason> if it is capture metadata, not rewound state)", names[1])
		}
	}
	return snapState
}

// recvObject returns the receiver variable of a method declaration.
func recvObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Type().(*types.Signature).Recv()
}

// fieldRefs walks the method body and returns the indices of st's
// fields selected through root — directly (root.f), through promoted
// selections (root.Embedded.f, root.promoted), or as the base of a
// delegating method call (root.f.Method(...)).
func fieldRefs(pass *Pass, fd *ast.FuncDecl, root types.Object, st *types.Struct) map[int]bool {
	refs := make(map[int]bool)
	if root == nil || fd.Body == nil {
		return refs
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base := ast.Unparen(sel.X)
		if star, ok := base.(*ast.StarExpr); ok {
			base = ast.Unparen(star.X)
		}
		id, ok := base.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != root {
			return true
		}
		s, ok := pass.Info.Selections[sel]
		if !ok || len(s.Index()) == 0 {
			return true
		}
		switch s.Obj().(type) {
		case *types.Var:
			// Field selection; Index()[0] is the direct field, even for
			// selections promoted through an embedded field.
			refs[s.Index()[0]] = true
		case *types.Func:
			// A direct method call selects no field; a promoted one
			// reaches the method through the embedded field Index()[0].
			if len(s.Index()) > 1 {
				refs[s.Index()[0]] = true
			}
		}
		return true
	})
	return refs
}

// reportUncovered reports one finding per unreferenced, unskipped field
// of st, at the field's declaration, in field order.
func reportUncovered(pass *Pass, tn *types.TypeName, st *types.Struct, refs map[int]bool, format, method string) {
	var missing []int
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if refs[i] || f.Name() == "_" {
			continue
		}
		if pass.Directives.SnapshotSkipAt(pass.Fset.Position(f.Pos())) {
			continue
		}
		missing = append(missing, i)
	}
	sort.Ints(missing)
	for _, i := range missing {
		f := st.Field(i)
		pass.Reportf(f.Pos(), format, tn.Name(), f.Name(), method)
	}
}

package analysis

// Seeded-regression tests: re-type-check a REAL snapshotted package
// with one field copy deleted (and a real registry merge made
// non-commutative) through an in-memory overlay, and prove the
// analyzers turn red. This is the acceptance check that the CI gate is
// load-bearing: if these edits stopped producing findings, a genuine
// missed-field bug (the class PR 6 fixed by hand) would sail through.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// realPackageFiles lists the non-test Go sources of a module package.
func realPackageFiles(t *testing.T, dir string) []string {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(all) == 0 {
		t.Fatalf("no sources in %s: %v", dir, err)
	}
	var files []string
	for _, f := range all {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}

// checkReal runs analyzers over a real module package, with overlay
// contents (if any) substituted for on-disk files.
func checkReal(t *testing.T, importPath, dir string, overlay map[string][]byte, as []*Analyzer) []Diagnostic {
	t.Helper()
	fset, imp := loadTestImporter(t)
	pkg, err := TypeCheckOverlay(fset, imp, importPath, realPackageFiles(t, dir), overlay)
	if err != nil {
		t.Fatalf("type-checking %s: %v", importPath, err)
	}
	return Check(pkg, as)
}

// patchFile returns dir/file's content with one occurrence of old
// replaced by new, failing if the seed text is not present (so the test
// breaks loudly if the real code drifts).
func patchFile(t *testing.T, dir, file, old, new string) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), old) {
		t.Fatalf("%s no longer contains %q; update the seeded-regression patch", path, old)
	}
	return path, []byte(strings.Replace(string(src), old, new, 1))
}

func moduleDir(t *testing.T, elem ...string) string {
	t.Helper()
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, filepath.Join(elem...))
}

// TestSnapshotCoverSeededRegression deletes the dispatchPending copy
// from the real kernel Kernel.Snapshot and requires snapshotcover to
// report both the uncaptured receiver field and the broken mirror
// symmetry.
func TestSnapshotCoverSeededRegression(t *testing.T) {
	dir := moduleDir(t, "internal", "kernel")
	path, patched := patchFile(t, dir, "snapshot.go",
		"\tinto.dispatchPending = k.dispatchPending\n", "")

	diags := checkReal(t, "repro/internal/kernel", dir,
		map[string][]byte{path: patched}, []*Analyzer{SnapshotCover})
	var gotRecv, gotState bool
	for _, d := range diags {
		if strings.Contains(d.Message, "field Kernel.dispatchPending is not captured by Snapshot") {
			gotRecv = true
		}
		if strings.Contains(d.Message, "state field KernelState.dispatchPending is never written by Snapshot") {
			gotState = true
		}
	}
	if !gotRecv || !gotState {
		t.Errorf("deleting the dispatchPending copy must report the uncaptured field and the mirror break; got %v", diags)
	}

	if clean := checkReal(t, "repro/internal/kernel", dir, nil, []*Analyzer{SnapshotCover}); len(clean) != 0 {
		t.Errorf("unpatched kernel must be clean, got %v", clean)
	}
}

// TestMergeCommuteSeededRegression turns the real Registry.Merge
// counter fold into a plain overwrite and requires mergecommute to
// flag it.
func TestMergeCommuteSeededRegression(t *testing.T) {
	dir := moduleDir(t, "internal", "obs")
	path, patched := patchFile(t, dir, "metrics.go",
		"dst.n += other.counters.at[id].n", "dst.n = other.counters.at[id].n")

	diags := checkReal(t, "repro/internal/obs", dir,
		map[string][]byte{path: patched}, []*Analyzer{MergeCommute})
	var got bool
	for _, d := range diags {
		if d.Analyzer == MergeCommute.Name && strings.Contains(d.Message, "plain overwrite of dst.n") {
			got = true
		}
	}
	if !got {
		t.Errorf("overwriting the counter in Merge must be a mergecommute finding; got %v", diags)
	}

	if clean := checkReal(t, "repro/internal/obs", dir, nil, []*Analyzer{MergeCommute}); len(clean) != 0 {
		t.Errorf("unpatched obs must be clean, got %v", clean)
	}
}

// TestRealPackagesCleanUnderNewAnalyzers pins the whole-module contract
// the CI gate relies on: every snapshotted package runs clean under the
// full suite including the two new analyzers (justified allows only).
func TestRealPackagesCleanUnderNewAnalyzers(t *testing.T) {
	for _, p := range []string{"des", "cpu", "kernel", "obs", "ttnet", "node", "bbw", "fault", "exhaust", "adapt"} {
		dir := moduleDir(t, "internal", p)
		if diags := checkReal(t, "repro/internal/"+p, dir, nil, []*Analyzer{SnapshotCover, MergeCommute}); len(diags) != 0 {
			t.Errorf("%s: %v", p, diags)
		}
	}
}

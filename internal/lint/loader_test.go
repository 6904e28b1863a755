package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderControlPlanePackages pins the three-pass loader against the
// post-control-plane tree: the packages the interprocedural rules lean on
// hardest (internal/service, internal/replog, internal/agent) must load as
// base units with full type information, and their in-package test files
// must come back as UnitInTest re-checks — the split that decides which
// files feed the call graph and which fall back to syntactic checking.
func TestLoaderControlPlanePackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load(repo root): %v", err)
	}

	units := make(map[string]map[UnitKind]*Unit)
	for _, u := range mod.Units {
		if units[u.PkgPath] == nil {
			units[u.PkgPath] = make(map[UnitKind]*Unit)
		}
		if prev := units[u.PkgPath][u.Kind]; prev != nil {
			t.Errorf("%s: two units of kind %d", u.PkgPath, u.Kind)
		}
		units[u.PkgPath][u.Kind] = u
	}

	for _, pkg := range []string{
		"threesigma/internal/service",
		"threesigma/internal/replog",
		"threesigma/internal/agent",
	} {
		kinds := units[pkg]
		if kinds == nil {
			t.Errorf("%s: not loaded", pkg)
			continue
		}

		base := kinds[UnitBase]
		if base == nil {
			t.Errorf("%s: no base unit", pkg)
			continue
		}
		if base.Pkg == nil || base.Info == nil || len(base.Info.Defs) == 0 || len(base.Info.Selections) == 0 {
			t.Errorf("%s: base unit lacks type info (Pkg/Defs/Selections)", pkg)
		}
		for _, f := range base.Files {
			if f.Test {
				t.Errorf("%s: base unit contains test file %s", pkg, f.Path)
			}
			if !f.Report {
				t.Errorf("%s: base file %s not reportable", pkg, f.Path)
			}
		}

		// All three packages keep their tests in-package (package service,
		// package replog, package agent) — pass 2 territory.
		inTest := kinds[UnitInTest]
		if inTest == nil {
			t.Errorf("%s: no in-package test unit", pkg)
			continue
		}
		if inTest.Info == nil || len(inTest.Info.Defs) == 0 {
			t.Errorf("%s: in-test unit lacks type info", pkg)
		}
		sawTest := false
		for _, f := range inTest.Files {
			if !f.Test {
				if f.Report {
					t.Errorf("%s: non-test file %s reportable in the in-test unit (double reporting)", pkg, f.Path)
				}
				continue
			}
			sawTest = true
			if !f.Report {
				t.Errorf("%s: test file %s not reportable", pkg, f.Path)
			}
		}
		if !sawTest {
			t.Errorf("%s: in-test unit has no test files", pkg)
		}
	}

	// The service package's cross-file method sets must have resolved:
	// snapshot_test.go exercises snapshot/compaction symbols defined across
	// service.go, replicate.go and snapshot.go, so a Defs entry for a
	// Test* function there proves the re-check saw the whole package.
	svc := units["threesigma/internal/service"]
	if svc != nil && svc[UnitInTest] != nil {
		found := false
		for id, obj := range svc[UnitInTest].Info.Defs {
			if obj == nil {
				continue
			}
			if strings.HasPrefix(id.Name, "Test") &&
				strings.HasSuffix(mod.Fset.Position(id.Pos()).Filename, "snapshot_test.go") {
				found = true
				break
			}
		}
		if !found {
			t.Error("service in-test unit: no Test* Defs from snapshot_test.go; the re-check lost files")
		}
	}

	// internal/milp's external test calls a helper from its export_test.go
	// and hands it models built by internal/core and internal/check, which
	// import internal/milp: it type-checks only the way the go tool builds
	// it, with those packages recompiled against milp's test variant.
	if units["threesigma/internal/milp_test"][UnitExTest] == nil {
		t.Error("internal/milp_test: no external test unit")
	}
}

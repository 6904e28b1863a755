package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// File is one parsed source file of a unit.
type File struct {
	Path   string // path as given to the parser (relative to the module root)
	AST    *ast.File
	Test   bool // *_test.go
	Report bool // diagnostics from this file belong to this unit
}

// UnitKind distinguishes the three loader passes a Unit can come from.
type UnitKind int

const (
	// UnitBase is a package's non-test files (pass 1). Base units are the
	// substrate of the interprocedural analyses: their types.Func objects
	// are shared across packages, so the module-wide call graph is built
	// over base units only.
	UnitBase UnitKind = iota
	// UnitInTest is a package re-checked with its in-package test files
	// (pass 2). Only the test files report diagnostics.
	UnitInTest
	// UnitExTest is an external foo_test package (pass 3).
	UnitExTest
)

// Unit is one type-checked compilation unit: a package's non-test files, a
// package re-checked together with its in-package test files, or an
// external _test package. A file appears in at most one unit with Report
// set, so diagnostics are never duplicated across the base and test
// variants of a package.
type Unit struct {
	Dir     string // module-relative directory ("" for the root package)
	PkgPath string // import path
	Kind    UnitKind
	Files   []*File
	Pkg     *types.Package
	Info    *types.Info

	// ip is the module-wide interprocedural model, set on base units by
	// RunOpts; rules that can use call-graph facts fall back to purely
	// syntactic reasoning when it is nil (test units, bare Load calls).
	ip *interproc
}

// Module is a loaded, fully type-checked module.
type Module struct {
	Root  string // absolute path of the directory containing go.mod
	Path  string // module path from go.mod
	Fset  *token.FileSet
	Units []*Unit
}

// sharedFset and sharedSource back every Load in the process: the source
// importer memoizes type-checked stdlib packages, so loading several
// corpora (the golden tests) pays for net/http et al. only once.
var (
	sharedMu     sync.Mutex
	sharedFset   = token.NewFileSet()
	sharedSource types.ImporterFrom
)

// Load parses and type-checks the module rooted at root. Only directories
// below root are read; testdata, vendor, hidden and underscore directories,
// and nested modules are skipped, exactly like the go tool's ./... pattern.
func Load(root string) (*Module, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	if sharedSource == nil {
		sharedSource = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	}
	m := &Module{Root: abs, Path: modPath, Fset: sharedFset}

	dirs, err := sourceDirs(abs)
	if err != nil {
		return nil, err
	}
	var pkgs []*rawPkg
	for _, dir := range dirs {
		p, err := parseDir(m, dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}

	// Pass 1: type-check the non-test variant of every package in
	// dependency order, so each unit's imports resolve to already-checked
	// module packages (stdlib imports resolve from source via sharedSource).
	byPath := make(map[string]*rawPkg, len(pkgs))
	for _, p := range pkgs {
		byPath[m.pkgPath(p.dir)] = p
	}
	order, err := topoOrder(m, byPath)
	if err != nil {
		return nil, err
	}
	checked := make(map[string]*types.Package)
	imp := &moduleImporter{mod: m, pkgs: checked}
	for _, path := range order {
		p := byPath[path]
		if len(p.base) == 0 {
			continue // test-only directory
		}
		u, err := m.check(path, p.base, imp)
		if err != nil {
			return nil, err
		}
		u.Kind = UnitBase
		checked[path] = u.Pkg
		m.Units = append(m.Units, u)
	}

	// Pass 2: re-check packages together with their in-package test files.
	// Test files may import packages that themselves import the base
	// package, so this must run after every base unit exists. Only the test
	// files report diagnostics (the base files already did in pass 1).
	inTestPkg := make(map[string]*types.Package)
	for _, path := range order {
		p := byPath[path]
		if len(p.inTest) == 0 {
			continue
		}
		var files []*File
		for _, f := range p.base {
			files = append(files, &File{Path: f.Path, AST: f.AST, Test: f.Test})
		}
		files = append(files, p.inTest...)
		u, err := m.check(path, files, imp)
		if err != nil {
			return nil, err
		}
		u.Kind = UnitInTest
		inTestPkg[path] = u.Pkg
		m.Units = append(m.Units, u)
	}

	// Pass 3: external _test packages. The real build compiles foo_test
	// against the test variant of foo and recompiles foo's dependents
	// against it, too. foo_test is checked against the base variants first,
	// and rebuilt that way only when that fails (i.e. when it uses helpers
	// exported from in-package test files).
	for _, path := range order {
		p := byPath[path]
		if len(p.exTest) == 0 {
			continue
		}
		u, err := m.check(path+"_test", p.exTest, imp)
		if err != nil && inTestPkg[path] != nil {
			var vimp *moduleImporter
			if vimp, err = m.testVariant(path, inTestPkg[path], order, byPath, checked); err == nil {
				u, err = m.check(path+"_test", p.exTest, vimp)
			}
		}
		if err != nil {
			return nil, err
		}
		u.Kind = UnitExTest
		m.Units = append(m.Units, u)
	}
	return m, nil
}

// check type-checks one unit, resolving module imports through imp.
func (m *Module) check(pkgPath string, files []*File, imp *moduleImporter) (*Unit, error) {
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := types.Config{Importer: imp}
	pkg, err := cfg.Check(pkgPath, m.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", pkgPath, err)
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(pkgPath, m.Path), "/")
	return &Unit{Dir: dir, PkgPath: pkgPath, Files: files, Pkg: pkg, Info: info}, nil
}

// testVariant returns an importer that resolves path to its test variant
// and every module package that imports path, directly or not, to a re-check
// against that variant (in dependency order): the packages the go tool
// recompiles for path's external test. The re-checks are not units; their
// files already reported in pass 1.
func (m *Module) testVariant(path string, variant *types.Package, order []string, byPath map[string]*rawPkg, checked map[string]*types.Package) (*moduleImporter, error) {
	pkgs := maps.Clone(checked)
	pkgs[path] = variant
	imp := &moduleImporter{mod: m, pkgs: pkgs}
	rebuilt := map[string]bool{path: true}
	for _, q := range order {
		if rebuilt[q] || len(byPath[q].base) == 0 || !importsAny(byPath[q].base, rebuilt) {
			continue
		}
		u, err := m.check(q, byPath[q].base, imp)
		if err != nil {
			return nil, err
		}
		pkgs[q], rebuilt[q] = u.Pkg, true
	}
	return imp, nil
}

// importsAny reports whether any of files imports a path in set.
func importsAny(files []*File, set map[string]bool) bool {
	for _, f := range files {
		for _, spec := range f.AST.Imports {
			if ip, err := strconv.Unquote(spec.Path.Value); err == nil && set[ip] {
				return true
			}
		}
	}
	return false
}

// moduleImporter resolves module-internal imports from the checked map and
// everything else (the standard library) from source.
type moduleImporter struct {
	mod  *Module
	pkgs map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == mi.mod.Path || strings.HasPrefix(path, mi.mod.Path+"/") {
		if p, ok := mi.pkgs[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("module package %s not yet checked (import cycle?)", path)
	}
	return sharedSource.ImportFrom(path, dir, mode)
}

// pkgPath maps a module-relative directory to an import path.
func (m *Module) pkgPath(dir string) string {
	if dir == "" || dir == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(dir)
}

// rawPkg is the pre-check shape of one directory's files.
type rawPkg struct {
	dir                  string
	base, inTest, exTest []*File
	name                 string
}

// parseDir parses one directory's .go files into base / in-package-test /
// external-test groups. Returns nil when the directory has no Go files.
func parseDir(m *Module, rel string) (*rawPkg, error) {
	absDir := filepath.Join(m.Root, rel)
	ents, err := os.ReadDir(absDir)
	if err != nil {
		return nil, err
	}
	p := &rawPkg{dir: rel}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		relPath := filepath.Join(rel, name)
		af, err := parser.ParseFile(m.Fset, relPath, mustRead(filepath.Join(absDir, name)), parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f := &File{Path: relPath, AST: af, Test: strings.HasSuffix(name, "_test.go")}
		switch {
		case !f.Test:
			f.Report = true
			p.base = append(p.base, f)
			p.name = af.Name.Name
		case strings.HasSuffix(af.Name.Name, "_test"):
			f.Report = true
			p.exTest = append(p.exTest, f)
		default:
			f.Report = true
			p.inTest = append(p.inTest, f)
		}
	}
	if len(p.base)+len(p.inTest)+len(p.exTest) == 0 {
		return nil, nil
	}
	return p, nil
}

func mustRead(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return b
}

// sourceDirs walks the module and returns every directory that may hold
// lintable Go files, module-relative, sorted.
func sourceDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		dirs = append(dirs, rel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// topoOrder sorts the module's package paths so every package follows all
// module-internal packages its non-test files import.
func topoOrder(m *Module, pkgs map[string]*rawPkg) ([]string, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		state[path] = grey
		p := pkgs[path]
		var deps []string
		for _, f := range p.base {
			for _, spec := range f.AST.Imports {
				ip, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := pkgs[ip]; ok {
					deps = append(deps, ip)
				}
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", filepath.Dir(gomod), err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

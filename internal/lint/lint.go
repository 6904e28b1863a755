// Package lint is 3sigma-lint: a stdlib-only static analyzer that enforces
// the repository's determinism and concurrency invariants at compile time
// (DESIGN.md §10). The whole evaluation rests on bit-identical replay — the
// fault-determinism gate, the differential solver oracle, and the outcome
// digests all assume that no wall-clock read, global-RNG draw, or
// map-iteration-order dependence ever leaks into a scheduling decision.
// Before this package that contract was enforced only dynamically, by
// seeded-digest tests that can cover only the code paths they happen to
// exercise; lint makes it a property of the source.
//
// The analyzer loads the module with go/parser and type-checks it with
// go/types (stdlib packages are imported from source via go/importer, so no
// external dependencies are needed), then runs a fixed catalog of rules.
// Per-function rules:
//
//	detrange     ranging over a map in a deterministic package
//	wallclock    time.Now/Since/After/Until outside simulator/clock.go
//	globalrand   math/rand outside internal/stats
//	floateq      ==/!= between floating-point expressions
//	mutexcopy    a sync.Mutex/RWMutex copied by value
//	guardedfield a "// guarded by <mu>" field accessed without the lock
//	erraudit     a discarded error from the durability call set
//	sleeppoll    time.Sleep inside a loop in non-test code under internal/
//
// Interprocedural rules, built on a conservative module-wide call graph
// and mutex model (interproc.go):
//
//	lockorder    the lock-acquisition graph must be acyclic
//	lockedcall   *Locked calls hold their guard; no blocking under a hot mutex
//
// Every diagnostic is individually suppressible with a comment on the same
// line or the line above:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory: an allow without one does not suppress anything
// and is itself reported (rule "badallow"), so every accepted exception in
// the tree carries a written justification. When the full catalog runs, an
// allow that suppressed nothing is reported as stale — suppression debt
// cannot silently outlive the finding it once justified.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a named rule violated at a position. Fn is
// the enclosing function ("Type.method" for methods), when there is one.
// Chain is rule-specific context: the lock cycle for lockorder, the
// witness call path for lockedcall blocking findings.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	Fn      string
	Chain   []string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// A rule inspects one reportable file of a type-checked unit and reports
// violations through the unit's reporter. Rules that declare testFiles
// false are not run on _test.go files (tests measure wall time, seed local
// RNGs, and assert bitwise identity on purpose; the concurrency rules still
// apply everywhere).
type rule struct {
	name      string
	doc       string
	testFiles bool
	run       func(u *Unit, f *File, rep reporter)
}

type reporter func(n ast.Node, format string, args ...interface{})

// A modRule runs once over the whole module's interprocedural model
// instead of file by file. Its reporter takes a raw position (suppression
// is resolved through the file owning that position) and an optional
// chain of context strings.
type modRule struct {
	name string
	doc  string
	run  func(ip *interproc, rep ipReporter)
}

type ipReporter func(pos token.Pos, chain []string, format string, args ...interface{})

// rules is the per-file catalog, in reporting order. badallow is not
// listed: it is emitted by the suppression pass itself and cannot be
// switched off.
var rules = []rule{
	{"detrange", "map iteration in a deterministic package must sort keys first", true, runDetRange},
	{"wallclock", "wall-clock reads are confined to simulator/clock.go", false, runWallClock},
	{"globalrand", "math/rand is confined to internal/stats", false, runGlobalRand},
	{"floateq", "no exact floating-point equality outside tests", false, runFloatEq},
	{"mutexcopy", "sync.Mutex/RWMutex must not be copied by value", true, runMutexCopy},
	{"guardedfield", "'guarded by' fields are only touched under their mutex", true, runGuardedField},
	{"erraudit", "durability-path error returns must not be discarded", false, runErrAudit},
	{"sleeppoll", "no time.Sleep in a loop in non-test code under internal/", false, runSleepPoll},
}

// modRules is the interprocedural catalog. These rules see base (non-test)
// units only: the call graph spans the module through the shared
// types.Func objects of pass-1 type checking.
var modRules = []modRule{
	{"lockorder", "the lock-acquisition graph must be acyclic", runLockOrder},
	{"lockedcall", "*Locked calls hold their guard; no blocking under a hot mutex", runLockedCall},
}

// RuleNames returns the catalog names in reporting order (per-file rules,
// then interprocedural rules).
func RuleNames() []string {
	var out []string
	for _, r := range rules {
		out = append(out, r.name)
	}
	for _, r := range modRules {
		out = append(out, r.name)
	}
	return out
}

// knownRule reports whether name is a catalog rule (or badallow).
func knownRule(name string) bool {
	if name == "badallow" {
		return false // not suppressible, not selectable
	}
	for _, r := range rules {
		if r.name == name {
			return true
		}
	}
	for _, r := range modRules {
		if r.name == name {
			return true
		}
	}
	return false
}

// Options configures a lint run.
type Options struct {
	// Rules selects a subset of the catalog; nil or empty runs everything.
	// Stale-suppression detection only runs with the full catalog (a
	// partial run cannot tell an allow for an unselected rule from a dead
	// one).
	Rules []string
	// HotLocks are the hot-mutex patterns for lockedcall's blocking check.
	// A pattern matches a canonical lock key ("pkg.Type.field") exactly or
	// as a ".«pattern»" suffix, so "Service.mu" covers service.Service.mu.
	// Nil means DefaultHotLocks.
	HotLocks []string
}

// DefaultHotLocks is the default hot-mutex set: the Service's big lock,
// which every admission, cycle, and replication step serializes on.
var DefaultHotLocks = []string{"Service.mu"}

// Run loads the module rooted at root (the directory containing go.mod),
// runs the selected rules (nil or empty means all), applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
// Load or type-check failures are returned as an error: a tree that does
// not compile cannot be certified deterministic.
func Run(root string, selected []string) ([]Diagnostic, error) {
	return RunOpts(root, Options{Rules: selected})
}

// RunOpts is Run with full configuration.
func RunOpts(root string, opts Options) ([]Diagnostic, error) {
	selected := opts.Rules
	for _, name := range selected {
		if !knownRule(name) {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", name, strings.Join(RuleNames(), ", "))
		}
	}
	mod, err := Load(root)
	if err != nil {
		return nil, err
	}
	hot := opts.HotLocks
	if hot == nil {
		hot = DefaultHotLocks
	}
	ip := buildInterproc(mod, hot)
	for _, u := range mod.Units {
		if u.Kind == UnitBase {
			u.ip = ip
		}
	}

	type fctx struct {
		u      *Unit
		f      *File
		allows *allowSet
	}
	var ctxs []*fctx
	byFile := make(map[string]*fctx)
	for _, u := range mod.Units {
		for _, f := range u.Files {
			if !f.Report {
				continue
			}
			c := &fctx{u: u, f: f, allows: parseAllows(mod.Fset, f.AST)}
			ctxs = append(ctxs, c)
			byFile[f.Path] = c
		}
	}

	var diags []Diagnostic
	for _, c := range ctxs {
		diags = append(diags, c.allows.malformed...)
		for _, r := range rules {
			if c.f.Test && !r.testFiles {
				continue
			}
			if len(selected) > 0 && !contains(selected, r.name) {
				continue
			}
			rname, cc := r.name, c
			rep := func(n ast.Node, format string, args ...interface{}) {
				pos := mod.Fset.Position(n.Pos())
				if cc.allows.suppressed(rname, pos.Line) {
					return
				}
				diags = append(diags, Diagnostic{Pos: pos, Rule: rname,
					Message: fmt.Sprintf(format, args...), Fn: enclosingFunc(cc.f.AST, n.Pos())})
			}
			r.run(c.u, c.f, rep)
		}
	}

	for _, r := range modRules {
		if len(selected) > 0 && !contains(selected, r.name) {
			continue
		}
		rname := r.name
		rep := func(pos token.Pos, chain []string, format string, args ...interface{}) {
			p := mod.Fset.Position(pos)
			c := byFile[p.Filename]
			if c != nil && c.allows.suppressed(rname, p.Line) {
				return
			}
			var fn string
			if c != nil {
				fn = enclosingFunc(c.f.AST, pos)
			}
			diags = append(diags, Diagnostic{Pos: p, Rule: rname,
				Message: fmt.Sprintf(format, args...), Fn: fn, Chain: chain})
		}
		r.run(ip, rep)
	}

	// Stale-suppression pass: with the full catalog just run, any
	// well-formed allow that suppressed nothing is dead weight and gets
	// reported itself.
	if len(selected) == 0 {
		for _, c := range ctxs {
			diags = append(diags, c.allows.stale()...)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

// enclosingFunc names the function declaration containing pos:
// "Type.method" for methods, the bare name for functions, "" at top level.
func enclosingFunc(file *ast.File, pos token.Pos) string {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			if t := recvTypeName(fd.Recv.List[0].Type); t != "" {
				return t + "." + fd.Name.Name
			}
		}
		return fd.Name.Name
	}
	return ""
}

// recvTypeName extracts the bare receiver type name from a receiver
// expression (strips pointers and type parameters).
func recvTypeName(e ast.Expr) string {
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

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestStateFileIsPure holds state.go to what its header promises — no lock,
// no clock, no I/O, no logging — by what it can import and name, so that the
// promise fails a build instead of waiting for a reviewer: the replicated
// state may not import a package that could give it a mutex, a wall clock, a
// socket, a file or an agent's client, and may not reach for the shell's
// logger or clock through a Config.
func TestStateFileIsPure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "state.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]string{
		"sync":                      "the shell owns the only mutex",
		"sync/atomic":               "the shell owns all synchronisation",
		"time":                      "state reads no clock; logical time arrives in records",
		"net/http":                  "state does no I/O",
		"os":                        "state does no I/O",
		"log":                       "state logs nothing; it returns logLine effects",
		"threesigma/internal/agent": "agent round-trips are the shell's; state returns start/retire effects",
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if why, bad := banned[path]; bad {
			t.Errorf("state.go imports %q: %s", path, why)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); (ok && x.Name == "cfg") || sel.Sel.Name == "cfg" {
			t.Errorf("%s: state.go reaches for a Config (%s): Logf and Clock are the shell's",
				fset.Position(sel.Pos()), sel.Sel.Name)
		}
		if sel.Sel.Name == "Logf" || sel.Sel.Name == "Clock" {
			t.Errorf("%s: state.go mentions %s", fset.Position(sel.Pos()), sel.Sel.Name)
		}
		return true
	})
}

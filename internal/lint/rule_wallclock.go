package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// wallClockFuncs are the package time entry points that read the host's
// real clock. Reading them anywhere but simulator/clock.go lets host load
// leak into scheduling decisions. Code that measures durations uses the one
// stopwatch, simulator.WallClock, and code whose time a test must step
// takes a simulator.Clock; no decision may depend on either.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"After": true,
	"Until": true,
}

// runWallClock reports uses of time.Now / time.Since / time.After /
// time.Until outside simulator/clock.go. Both calls and uses as a value
// (e.g. `now = time.Now`) are reported.
func runWallClock(u *Unit, f *File, rep reporter) {
	if filepath.Base(f.Path) == "clock.go" && strings.HasSuffix(strings.TrimSuffix(u.PkgPath, "_test"), "simulator") {
		return
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true // a method like Time.After, not the package function
		}
		rep(sel, "time.%s reads the wall clock: measure durations with the stopwatch simulator.WallClock, or take a simulator.Clock, and let no decision depend on either", fn.Name())
		return true
	})
}

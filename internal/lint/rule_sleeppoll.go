package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runSleepPoll reports time.Sleep inside a for loop in non-test code under
// internal/. A loop that sleeps and looks again is a poll, and a poll adds
// half its period to whatever waits on it: the quorum wait's 2 ms sleep was
// most of the replication tax on every admission. Wait on the event instead
// — a channel the producer closes, a sync.Cond — and arm a timer only for
// what time alone can change. The loop's condition and post statement count
// as inside it (`for ; !done(); time.Sleep(d)` is the same poll); a function
// literal starts over, since a goroutine launched from a loop does not sleep
// in that loop. cmd/ paces load generators with Sleep on purpose and is out
// of scope, as are tests.
func runSleepPoll(u *Unit, f *File, rep reporter) {
	if !strings.Contains("/"+u.PkgPath+"/", "/internal/") {
		return
	}
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				walk(x.Body, false)
				return false
			case *ast.ForStmt:
				walk(x.Init, inLoop)
				walk(x.Cond, true)
				walk(x.Post, true)
				walk(x.Body, true)
				return false
			case *ast.RangeStmt:
				walk(x.X, inLoop)
				walk(x.Body, true)
				return false
			case *ast.CallExpr:
				if inLoop && isTimeSleep(u, x) {
					rep(x, "time.Sleep in a loop is a poll: wait on the event (a channel the producer closes, a sync.Cond) and arm a timer only for what time alone changes")
				}
			}
			return true
		})
	}
	walk(f.AST, false)
}

func isTimeSleep(u *Unit, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep"
}

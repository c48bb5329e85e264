// Package locksend flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends, channel receives,
// selects with no default case, and calls to known-blocking functions
// (time.Sleep, clock.Clock.Sleep, sync.WaitGroup.Wait).
//
// A goroutine that blocks on a channel while it holds a mutex deadlocks
// the moment the goroutine it waits for needs that mutex: the solver's
// parallel dives share two, and the analyzer's first finding was a send
// under clock.Virtual's. A select with a default case never blocks and is
// not flagged.
//
// The held-lock tracking is the shared lexical walk in
// flex/internal/analysis/lockflow: a lock is held from a successful
// x.Lock()/x.RLock() until x.Unlock()/x.RUnlock() in the same statement
// sequence; a deferred unlock keeps the lock held to the end of the
// function; branches are walked with a copy of the held set; goroutine
// bodies and non-invoked function literals start with an empty held set.
package locksend

import (
	"go/ast"
	"go/types"

	"flex/internal/analysis"
	"flex/internal/analysis/lockflow"
)

// Analyzer is the locksend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "locksend",
	Doc: "flag blocking operations while a sync mutex is held\n\n" +
		"Channel sends/receives, default-less selects, and blocking calls\n" +
		"under a held mutex deadlock whoever waits for that mutex.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	lockflow.Walk(pass.TypesInfo, pass.Files, lockflow.Hooks{
		OnSend: func(s *ast.SendStmt, held []lockflow.Lock) {
			if len(held) > 0 {
				pass.Reportf(s.Arrow, "channel send while mutex %q is held; use a buffered non-blocking send or move the send outside the critical section", held[0].Key)
			}
		},
		OnRecv: func(e *ast.UnaryExpr, held []lockflow.Lock) {
			if len(held) > 0 {
				pass.Reportf(e.OpPos, "channel receive while mutex %q is held", held[0].Key)
			}
		},
		OnBlockingSelect: func(s *ast.SelectStmt, held []lockflow.Lock) {
			if len(held) > 0 {
				pass.Reportf(s.Select, "blocking select while mutex %q is held; add a default case or move it outside the critical section", held[0].Key)
			}
		},
		OnCall: func(call *ast.CallExpr, held []lockflow.Lock) {
			if len(held) == 0 {
				return
			}
			if name := blockingCall(pass.TypesInfo, call); name != "" {
				pass.Reportf(call.Pos(), "call to %s may block while mutex %q is held", name, held[0].Key)
			}
		},
	})
	return nil, nil
}

// blockingCall returns a display name when the call is known to block:
// time.Sleep, any Sleep(time.Duration) method (the injected clocks), or
// sync.WaitGroup.Wait.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	if analysis.PkgFunc(info, call) == "time.Sleep" {
		return "time.Sleep"
	}
	recv, name, ok := analysis.MethodRecv(info, call)
	if !ok {
		return ""
	}
	if name == "Wait" && recv == "*sync.WaitGroup" {
		return "(*sync.WaitGroup).Wait"
	}
	if name == "Sleep" {
		if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok &&
			sig.Params().Len() == 1 && sig.Params().At(0).Type().String() == "time.Duration" {
			return "(" + recv + ").Sleep"
		}
	}
	return ""
}

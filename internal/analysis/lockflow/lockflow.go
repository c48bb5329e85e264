// Package lockflow is the shared held-lock walker behind locksend,
// eventcheck, and lockorder. It performs a lexical walk over each
// function body, tracking which sync.Mutex / sync.RWMutex locks are held
// at every point, and invokes analyzer-supplied hooks at the interesting
// events: lock acquisition, calls, channel sends and receives, and
// blocking selects.
//
// The tracking semantics are deliberately simple and shared verbatim by
// every client: a lock is held from a successful x.Lock()/x.RLock()
// until x.Unlock()/x.RUnlock() in the same statement sequence; a
// deferred unlock keeps the lock held to the end of the function;
// branches are walked with a copy of the held set so an unlock on an
// early-return path does not leak into the fallthrough path; goroutine
// bodies and non-invoked function literals start with an empty held set;
// an immediately-invoked function literal inherits the caller's locks.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lock is one held mutex.
type Lock struct {
	// Key is the lexical identity used for acquire/release matching and
	// in diagnostics: the receiver expression, e.g. "s.mu".
	Key string
	// Class is the global identity of the lock for cross-package
	// reasoning, e.g. "flex/internal/placement/online.Admitter.mu" for a
	// struct field or "flex/internal/x.mu" for a package-level mutex.
	// Empty when the lock has no stable identity (a local variable).
	// RLock and Lock on the same mutex share a Class.
	Class string
	// Pos is the acquisition site.
	Pos token.Pos
}

// Hooks are the analyzer callbacks. Any hook may be nil. Every hook
// receives the held set as of that point; the slice is shared — copy it
// to retain it.
type Hooks struct {
	// OnAcquire fires when a lock is taken, with the locks already held
	// at that moment (the new lock is not yet in held).
	OnAcquire func(lock Lock, held []Lock)
	// OnCall fires for every call expression that is not a lock
	// operation, an immediately-invoked literal, or a spawned goroutine.
	OnCall func(call *ast.CallExpr, held []Lock)
	// OnSend fires for every channel send statement.
	OnSend func(s *ast.SendStmt, held []Lock)
	// OnRecv fires for every <-ch receive expression.
	OnRecv func(e *ast.UnaryExpr, held []Lock)
	// OnBlockingSelect fires for every select with no default case
	// (a select with a default never blocks).
	OnBlockingSelect func(s *ast.SelectStmt, held []Lock)
}

// mutexRecvs are receiver types whose Lock/Unlock family manages a mutex.
var mutexRecvs = map[string]bool{
	"*sync.Mutex":   true,
	"*sync.RWMutex": true,
	"sync.Locker":   true,
}

// Walk runs the held-lock walk over every function declaration in files.
func Walk(info *types.Info, files []*ast.File, h Hooks) {
	for _, file := range files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				WalkFunc(info, fn, h)
			}
		}
	}
}

// WalkFunc runs the held-lock walk over one function declaration.
func WalkFunc(info *types.Info, fn *ast.FuncDecl, h Hooks) {
	w := &walker{info: info, hooks: h}
	w.walkStmts(fn.Body.List, nil)
}

type walker struct {
	info  *types.Info
	hooks Hooks
}

// walkStmts threads the held-lock set through a statement sequence and
// returns it as of the end.
func (w *walker) walkStmts(stmts []ast.Stmt, held []Lock) []Lock {
	for _, stmt := range stmts {
		held = w.walkStmt(stmt, held)
	}
	return held
}

func (w *walker) walkStmt(stmt ast.Stmt, held []Lock) []Lock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lock, kind := w.lockOp(call); kind == opLock {
				if w.hooks.OnAcquire != nil {
					w.hooks.OnAcquire(lock, held)
				}
				return append(copyOf(held), lock)
			} else if kind == opUnlock {
				return remove(held, lock.Key)
			}
		}
		w.checkExpr(s.X, held)
	case *ast.SendStmt:
		if w.hooks.OnSend != nil {
			w.hooks.OnSend(s, held)
		}
		w.checkExpr(s.Chan, held)
		w.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, held)
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the remaining walk,
		// which is exactly right; other deferred calls run at return and
		// are out of scope for this lexical analysis.
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, nil)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		w.walkStmts(s.Body.List, copyOf(held))
		if s.Else != nil {
			w.walkStmt(s.Else, copyOf(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		body := copyOf(held)
		body = w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		w.walkStmts(s.Body.List, copyOf(held))
	case *ast.BlockStmt:
		held = w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		held = w.walkStmt(s.Stmt, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyOf(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyOf(held))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && w.hooks.OnBlockingSelect != nil {
			w.hooks.OnBlockingSelect(s, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, copyOf(held))
			}
		}
	}
	return held
}

// checkExpr fires hooks for events syntactically inside e. Function
// literals start a fresh (un-locked) context unless immediately invoked.
func (w *walker) checkExpr(e ast.Expr, held []Lock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(v.Body.List, nil)
			return false
		case *ast.CallExpr:
			if lit, ok := v.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal runs under the caller's locks.
				for _, arg := range v.Args {
					w.checkExpr(arg, held)
				}
				w.walkStmts(lit.Body.List, copyOf(held))
				return false
			}
			if w.hooks.OnCall != nil {
				w.hooks.OnCall(v, held)
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && w.hooks.OnRecv != nil {
				w.hooks.OnRecv(v, held)
			}
		}
		return true
	})
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as taking or releasing a mutex.
func (w *walker) lockOp(call *ast.CallExpr) (Lock, lockOpKind) {
	recv, name, ok := methodRecv(w.info, call)
	if !ok || !mutexRecvs[recv] {
		return Lock{}, opNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Lock{}, opNone
	}
	lock := Lock{Key: types.ExprString(sel.X), Class: lockClass(w.info, sel.X), Pos: call.Pos()}
	switch name {
	case "Lock", "RLock":
		return lock, opLock
	case "Unlock", "RUnlock":
		return lock, opUnlock
	}
	return Lock{}, opNone
}

// lockClass derives a cross-package identity for the mutex expression:
// "<pkg>.<Type>.<field>" for a struct field, "<pkg>.<var>" for a
// package-level mutex, "" for anything without a stable global identity.
func lockClass(info *types.Info, expr ast.Expr) string {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			field, ok := sel.Obj().(*types.Var)
			if !ok || field.Pkg() == nil {
				return ""
			}
			t := sel.Recv()
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return field.Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
			}
			return field.Pkg().Path() + "." + field.Name()
		}
		// Package-qualified package-level mutex (pkg.mu).
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil {
			if _, isPkg := info.Uses[identOf(x.X)].(*types.PkgName); isPkg {
				return obj.Pkg().Path() + "." + obj.Name()
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok && obj.Pkg() != nil {
			if obj.Pkg().Scope().Lookup(obj.Name()) == obj {
				return obj.Pkg().Path() + "." + obj.Name()
			}
		}
	}
	return ""
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// methodRecv mirrors analysis.MethodRecv without importing it (lockflow
// sits below the analyzer packages and keeps no framework dependency).
func methodRecv(info *types.Info, call *ast.CallExpr) (recv string, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, isSelection := info.Selections[sel]
	if !isSelection || (selection.Kind() != types.MethodVal && selection.Kind() != types.MethodExpr) {
		return "", "", false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	return sig.Recv().Type().String(), fn.Name(), true
}

func copyOf(held []Lock) []Lock {
	return append([]Lock(nil), held...)
}

func remove(held []Lock, key string) []Lock {
	out := make([]Lock, 0, len(held))
	for _, h := range held {
		if h.Key != key {
			out = append(out, h)
		}
	}
	return out
}

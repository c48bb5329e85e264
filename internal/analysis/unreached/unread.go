package unreached

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flex/internal/analysis"
)

// candidate is a struct field or a package-level const/var that must be
// read (a field) or named (a value) by non-test code.
type candidate struct {
	obj   types.Object
	pos   token.Pos
	name  string // pkg.Type.Field or pkg.Name
	field bool
}

// unread reports the struct fields no non-test code reads and the
// package-level consts and vars no non-test code names.
//
// A keyed composite-literal key and the left side of = write a field;
// every other use reads it. A field with a struct tag, an embedded field,
// a _ field and every field of a struct compared with == or != or used as
// a map key is read implicitly, and so never reported.
func unread(pass *analysis.ModulePass) {
	var cands []candidate
	read := make(map[types.Object]bool)
	keep := func(doc *ast.CommentGroup, what string, pos token.Pos) bool {
		reason, ok := analysis.FlexDirective(doc, "keep")
		if ok && reason == "" {
			pass.Reportf(pos, "flex:keep on %s requires a reason, e.g. //flex:keep tests in three packages compare against it", what)
		}
		return ok
	}

	for _, pkg := range pass.Pkgs {
		info := pkg.TypesInfo
		prefix := pkg.Types.Name() + "."
		fields := func(owner string, st *ast.StructType) {
			for _, f := range st.Fields.List {
				if f.Tag != nil || len(f.Names) == 0 {
					continue
				}
				for _, id := range f.Names {
					name := prefix + owner + "." + id.Name
					if id.Name == "_" || keep(f.Doc, name, id.Pos()) || keep(f.Comment, name, id.Pos()) {
						continue
					}
					if obj := info.Defs[id]; obj != nil {
						cands = append(cands, candidate{obj: obj, pos: id.Pos(), name: name, field: true})
					}
				}
			}
		}
		for _, file := range pkg.Files {
			if isTest(pass, file) {
				continue
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, id := range vs.Names {
						name := prefix + id.Name
						if id.Name == "_" || keep(specDoc(gd, vs.Doc), name, id.Pos()) {
							continue
						}
						cands = append(cands, candidate{obj: info.Defs[id], pos: id.Pos(), name: name})
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GenDecl:
					for _, spec := range x.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if keep(specDoc(x, ts.Doc), prefix+ts.Name.Name, ts.Name.Pos()) {
							continue
						}
						ast.Inspect(ts.Type, func(n ast.Node) bool {
							if st, ok := n.(*ast.StructType); ok {
								fields(ts.Name.Name, st)
							}
							return true
						})
					}
					return x.Tok != token.TYPE
				case *ast.StructType:
					fields("struct", x)
				}
				return true
			})
			reads(info, file, read)
		}
	}

	for _, c := range cands {
		obj := c.obj
		if v, ok := obj.(*types.Var); ok {
			obj = v.Origin()
		}
		switch {
		case read[obj]:
		case c.field:
			pass.Reportf(c.pos, "%s is read by no non-test code: delete it, or say why it stays with //flex:keep <reason>", c.name)
		default:
			pass.Reportf(c.pos, "%s is named by no non-test code: delete it, or say why it stays with //flex:keep <reason>", c.name)
		}
	}
}

// reads marks in read every object file reads: a use that is neither a
// keyed composite-literal key nor the selector on the left of =, and
// every field of a struct the file compares or uses as a map key.
func reads(info *types.Info, file *ast.File, read map[types.Object]bool) {
	writes := make(map[*ast.Ident]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN {
				for _, lhs := range x.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							writes[id] = true
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				readAll(info.TypeOf(x.X), read)
			}
		case *ast.MapType:
			if m, ok := info.TypeOf(x).(*types.Map); ok {
				readAll(m.Key(), read)
			}
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil || writes[x] {
				break
			}
			if v, ok := obj.(*types.Var); ok {
				obj = v.Origin()
			}
			read[obj] = true
		}
		return true
	})
}

// readAll marks every field of t read, when t is a struct or an array of
// them: comparing t or hashing it as a map key reads all of them.
func readAll(t types.Type, read map[types.Object]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			read[f.Origin()] = true
			readAll(f.Type(), read)
		}
	case *types.Array:
		readAll(u.Elem(), read)
	}
}

// specDoc is the doc comment of a spec: its own, or its declaration's
// when the declaration has no parentheses.
func specDoc(gd *ast.GenDecl, doc *ast.CommentGroup) *ast.CommentGroup {
	if doc == nil && !gd.Lparen.IsValid() {
		return gd.Doc
	}
	return doc
}

func isTest(pass *analysis.ModulePass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

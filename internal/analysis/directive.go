package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Directives recognised by the framework:
//
//	//flex:hotpath
//	    On a function declaration's doc comment. Marks the function as a
//	    latency-critical root: allocfree proves everything statically
//	    reachable from it allocation-free.
//
//	//flex:coldpath
//	    On a function declaration's doc comment. Marks an audited slow
//	    path: allocfree stops traversing at it (e.g. the flight recorder's
//	    optional JSON sink, which only runs when explicitly attached).
//
//	//flex:keep <reason>
//	    On the doc comment of a function, a type, a struct field or a
//	    const/var spec. Keeps it from unreached's findings for the reason
//	    given (a later change wires it in, tests in other packages call
//	    it): a kept function is a root, a kept type keeps all its
//	    fields. The reason is mandatory — a bare keep is itself
//	    reported, as a bare ignore is.
//
//	//flexlint:ignore <analyzer> <reason>
//	    On or immediately above an offending line. Suppresses that
//	    analyzer's diagnostics there. The reason is mandatory — a bare
//	    ignore is itself reported, so every suppression is documented.

// HasFlexDirective reports whether the doc comment carries a
// //flex:<name> directive. Directive comments must start exactly
// "//flex:"; trailing prose after the name is allowed.
func HasFlexDirective(doc *ast.CommentGroup, name string) bool {
	_, ok := FlexDirective(doc, name)
	return ok
}

// FlexDirective returns the argument of doc's //flex:<name> directive —
// the text after the name, trimmed — and whether doc carries one. doc
// may be nil.
func FlexDirective(doc *ast.CommentGroup, name string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//flex:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) > 0 && fields[0] == name {
			return strings.TrimSpace(strings.TrimPrefix(rest, name)), true
		}
	}
	return "", false
}

const ignorePrefix = "//flexlint:ignore"

// collectIgnores walks every comment in pkgs, returning the analyzers of
// the well-formed suppressions indexed by file and line, plus a
// diagnostic Finding for each malformed directive (missing analyzer or
// missing reason).
//
// A directive suppresses matching diagnostics on its own line (trailing
// comment) and on the line directly below it (standalone comment above
// the offending statement).
func collectIgnores(fset *token.FileSet, pkgs []*Package) (map[string]map[int][]string, []Finding) {
	index := make(map[string]map[int][]string)
	var malformed []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Finding{Pkg: pkg, Diagnostic: Diagnostic{
							Pos:      c.Pos(),
							Message:  "flexlint:ignore requires an analyzer name and a reason, e.g. //flexlint:ignore ctxflow caller is a documented ctx-less wrapper",
							Category: "flexlint",
						}})
						continue
					}
					pos := fset.Position(c.Pos())
					byLine := index[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						index[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], fields[0])
				}
			}
		}
	}
	return index, malformed
}

// suppressed reports whether a diagnostic with the given category at pos
// is covered by an ignore directive.
func suppressed(fset *token.FileSet, index map[string]map[int][]string, pos token.Pos, category string) bool {
	p := fset.Position(pos)
	byLine := index[p.Filename]
	return slices.Contains(byLine[p.Line], category) || slices.Contains(byLine[p.Line-1], category)
}

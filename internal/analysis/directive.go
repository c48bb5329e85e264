package analysis

import (
	"go/ast"
	"go/token"
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
//	    On a function declaration's doc comment. Makes the function a
//	    root of unreached: it stays although no binary reaches it, for
//	    the reason given (a later change wires it in, tests in other
//	    packages call it). The reason is mandatory — a bare keep is
//	    itself reported, as a bare ignore is.
//
//	//flexlint:ignore <analyzer> <reason>
//	    On or immediately above an offending line. Suppresses that
//	    analyzer's diagnostics there. The reason is mandatory — a bare
//	    ignore is itself reported, so every suppression is documented.

// HasFlexDirective reports whether fd's doc comment carries a
// //flex:<name> directive. Directive comments must start exactly
// "//flex:"; trailing prose after the name is allowed.
func HasFlexDirective(fd *ast.FuncDecl, name string) bool {
	_, ok := FlexDirective(fd, name)
	return ok
}

// FlexDirective returns the argument of fd's //flex:<name> directive —
// the text after the name, trimmed — and whether fd carries one.
func FlexDirective(fd *ast.FuncDecl, name string) (arg string, ok bool) {
	if fd == nil || fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
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

// ignoreDirective is one parsed //flexlint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
}

// collectIgnores walks every comment in pkgs, returning the well-formed
// suppressions indexed by file and line, plus a diagnostic Finding for
// each malformed directive (missing analyzer or missing reason).
//
// A directive suppresses matching diagnostics on its own line (trailing
// comment) and on the line directly below it (standalone comment above
// the offending statement).
func collectIgnores(fset *token.FileSet, pkgs []*Package) (map[string]map[int][]ignoreDirective, []Finding) {
	index := make(map[string]map[int][]ignoreDirective)
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
						byLine = make(map[int][]ignoreDirective)
						index[pos.Filename] = byLine
					}
					d := ignoreDirective{analyzer: fields[0], reason: strings.Join(fields[1:], " ")}
					byLine[pos.Line] = append(byLine[pos.Line], d)
				}
			}
		}
	}
	return index, malformed
}

// suppressed reports whether a diagnostic with the given category at pos
// is covered by an ignore directive.
func suppressed(fset *token.FileSet, index map[string]map[int][]ignoreDirective, pos token.Pos, category string) bool {
	p := fset.Position(pos)
	byLine := index[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, d := range byLine[line] {
			if d.analyzer == category {
				return true
			}
		}
	}
	return false
}

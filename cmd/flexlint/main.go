// Command flexlint runs Flex's custom correctness analyzers over the
// repository: clockcheck (injected-clock discipline), floateq (no exact
// float comparison in the numeric packages), locksend (no blocking
// operations under a mutex), eventcheck (no flight-recorder emission
// under a mutex, interprocedural), shedcheck (no discarded errors on the
// power-shedding path), allocfree (//flex:hotpath functions are provably
// allocation-free), ctxflow (the caller's context is never dropped on a
// budgeted path), lockorder (no mutex acquisition-order cycles across
// packages), and unreached (no function that no binary reaches, no field
// that no code reads, no const or var that no code names).
//
// The suite is interprocedural: flexlint analyzes the whole module in
// one pass, building a module-wide call graph and letting analyzers
// exchange per-function facts across package boundaries.
//
// Usage:
//
//	go run ./cmd/flexlint ./...
//	go run ./cmd/flexlint -list
//	go run ./cmd/flexlint -json ./...
//	go run ./cmd/flexlint ./internal/telemetry ./internal/controller
//
// flexlint exits 1 when any analyzer reports a finding and 0 on a clean
// tree. With -json the findings are printed as a JSON array (one object
// per finding with file, line, col, message, analyzer) for CI
// annotation. It analyzes non-test files only: the invariants it
// enforces are deliberately relaxed in _test.go files.
//
// A finding can be suppressed — with a documented reason — by a
// directive on, or directly above, the offending line:
//
//	//flexlint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare ignore is itself reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flex/internal/analysis"
	"flex/internal/analysis/allocfree"
	"flex/internal/analysis/clockcheck"
	"flex/internal/analysis/ctxflow"
	"flex/internal/analysis/eventcheck"
	"flex/internal/analysis/floateq"
	"flex/internal/analysis/lockorder"
	"flex/internal/analysis/locksend"
	"flex/internal/analysis/shedcheck"
	"flex/internal/analysis/unreached"
)

// analyzers is the flexlint suite.
var analyzers = []*analysis.Analyzer{
	allocfree.Analyzer,
	clockcheck.Analyzer,
	ctxflow.Analyzer,
	eventcheck.Analyzer,
	floateq.Analyzer,
	lockorder.Analyzer,
	locksend.Analyzer,
	shedcheck.Analyzer,
	unreached.Analyzer,
}

// floateqScope confines floateq to the numeric packages, where epsilon
// comparison is mandatory for simplex / branch-and-bound / load-flow
// correctness. Exact comparison elsewhere (e.g. a tie-break on two copies
// of the same measurement) is left to review. Paths are relative to the
// module root.
var floateqScope = []string{
	"internal/lp",
	"internal/milp",
	"internal/power",
	"internal/feasibility",
}

// unreachedExempt lists the directories unreached does not report in.
// bench/ changes only together with the benchmark it defines. Its six
// findings go when the benchmark drivers are next rewritten: the method
// metricSpec.appliesTo and the fields metricSpec.Unit, workloadSpec.Why,
// layerSpec.Unit and layerSpec.Better, which only bench_test.go reads,
// and layerSpec.Moves, which nothing reads.
var unreachedExempt = []string{
	"bench",
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: flexlint [-list] [-json] [-only name,...] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the Flex correctness analyzers. Packages default to ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	suite := analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "flexlint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	n, err := lint(suite, patterns, *jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexlint: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "flexlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// jsonFinding is the -json wire format for one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// check runs the suite and returns the findings inside the packages the
// patterns match. It analyses the whole module whatever was asked for:
// facts about a callee (may it allocate, does it emit, which locks does it
// take) exist only once the callee's package has been analysed, and a
// pattern names the importer, not what it imports.
func check(suite []*analysis.Analyzer, patterns []string) ([]analysis.Finding, *analysis.Loader, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, nil, err
	}
	wanted, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return nil, nil, err
	}
	module, err := loader.LoadPatterns(filepath.Join(loader.ModuleDir(), "..."))
	if err != nil {
		return nil, nil, err
	}
	modulePath := loader.ModulePath()
	within := func(pkgPath string, dirs []string) bool {
		for _, p := range dirs {
			full := modulePath + "/" + p
			if pkgPath == full || strings.HasPrefix(pkgPath, full+"/") {
				return true
			}
		}
		return false
	}
	scope := func(a *analysis.Analyzer, pkgPath string) bool {
		return a.Name != floateq.Analyzer.Name || within(pkgPath, floateqScope)
	}
	findings, err := analysis.Run(loader.Fset, module, suite, scope)
	if err != nil {
		return nil, nil, err
	}
	asked := make(map[*analysis.Package]bool, len(wanted))
	for _, pkg := range wanted {
		asked[pkg] = true
	}
	kept := findings[:0]
	for _, f := range findings {
		if asked[f.Pkg] && (f.Category != unreached.Analyzer.Name || !within(f.Pkg.Path, unreachedExempt)) {
			kept = append(kept, f)
		}
	}
	return kept, loader, nil
}

// lint runs check on the patterns, prints the findings, and returns the
// finding count.
func lint(suite []*analysis.Analyzer, patterns []string, jsonOut bool) (int, error) {
	findings, loader, err := check(suite, patterns)
	if err != nil {
		return 0, err
	}
	cwd, _ := os.Getwd()
	if jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			pos := f.Position(loader.Fset)
			name := pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
					name = rel
				}
			}
			out = append(out, jsonFinding{File: name, Line: pos.Line, Col: pos.Column, Message: f.Message, Analyzer: f.Category})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return 0, err
		}
		return len(findings), nil
	}
	for _, f := range findings {
		fmt.Println(analysis.Format(loader.Fset, cwd, f))
	}
	return len(findings), nil
}

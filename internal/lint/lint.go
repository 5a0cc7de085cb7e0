// Package lint is Minuet's project-specific static analysis suite: a small
// go/analysis-shaped framework plus analyzers that encode invariants the
// compiler cannot see. Each analyzer is grounded in a bug class that a past
// PR actually shipped a review fix for:
//
//   - lockcheck: fields annotated "guarded by <mu>" may only be touched in
//     functions that lock <mu> or are named *Locked (memnode state races).
//   - durerr: error results of wal.FS / wal.File / wal.Log mutating calls
//     must not be discarded on non-test paths (the fail-stop contract).
//   - detcheck: no time.Now, global math/rand, or map-iteration-order
//     dependence inside the deterministic simulation packages (netsim and
//     the crash-sweep harness in internal/cluster), and no wall clock or
//     global math/rand in the non-test files of sinfonia, dyntx, alloc
//     and core.
//   - decodebound: allocation sizes and loop bounds taken from wire- or
//     WAL-decoded integers must be bounded against remaining input first
//     (the wire.Reader.Count pattern).
//
// On top of the per-package checks sits an interprocedural layer
// (callgraph.go, summaries.go): a whole-program type-resolved call graph
// with conservative interface devirtualization, and per-function lock
// summaries. Three analyzers consume it:
//
//   - lockorder: cycles in the global mutex acquisition-order graph across
//     call chains are potential deadlocks.
//   - wiresym: encode functions and their decode counterparts must write
//     and read the same field sequence.
//   - leakcheck: every go statement in the server packages needs a
//     shutdown path (WaitGroup, channel signal, or close).
//
// The framework mirrors golang.org/x/tools/go/analysis closely enough that
// the analyzers could be ported to real *analysis.Analyzer values if the
// dependency ever becomes available; it is built on the standard library
// only (go/ast, go/types, and gc export data produced by `go list -export`)
// because this repository vendors nothing.
//
// Findings are suppressed with staticcheck-style directives placed on the
// offending line or the line directly above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare ignore is itself reported. See
// docs/STATIC_ANALYSIS.md for the full convention.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Analyzer is one static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `minuet-vet -list`.
	Doc string
	// Scope, when non-nil, restricts the analyzer to packages for which it
	// returns true (by import path). A nil Scope means every package.
	Scope func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	// Exactly one of Run and RunProgram is set.
	Run func(*Pass)
	// RunProgram, when set, marks an interprocedural analyzer: it is
	// invoked once per run with the whole-program call graph (shared and
	// built lazily across all such analyzers) instead of once per package.
	// Scope is not applied by the driver — the analyzer filters the
	// program's packages itself, since its whole point is to see across
	// them.
	RunProgram func(*ProgramPass)
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees (including in-package _test.go
	// files; analyzers that only apply to production code should consult
	// IsTestFile).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ProgramPass carries the whole-program state to an interprocedural
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *ProgramPass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Prog.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockCheck, DurErr, DetCheck, DecodeBound, LockOrder, WireSym, LeakCheck}
}

// Timing is one analyzer's wall-clock cost in a run.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// Run applies every analyzer (filtered by reg, which may be nil) to every
// package and returns the surviving diagnostics, sorted by position.
// //lint:ignore directives have already been applied.
func Run(pkgs []*Package, analyzers []*Analyzer, reg *regexp.Regexp) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers, reg)
	return diags
}

// RunTimed is Run plus per-analyzer timings (for minuet-vet -v). The
// packages are loaded once by the caller and shared by every analyzer;
// interprocedural analyzers additionally share one lazily-built Program.
func RunTimed(pkgs []*Package, analyzers []*Analyzer, reg *regexp.Regexp) ([]Diagnostic, []Timing) {
	var diags []Diagnostic
	var timings []Timing
	var prog *Program
	for _, a := range analyzers {
		if reg != nil && !reg.MatchString(a.Name) {
			continue
		}
		start := time.Now()
		if a.RunProgram != nil {
			if prog == nil {
				prog = BuildProgram(pkgs)
			}
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &diags})
		} else {
			for _, pkg := range pkgs {
				if a.Scope != nil && !a.Scope(pkg.Path) {
					continue
				}
				a.Run(&Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					diags:    &diags,
				})
			}
		}
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
	}
	for _, pkg := range pkgs {
		diags = ApplyIgnores(pkg.Fset, pkg.Files, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, timings
}

// ignoreRe matches "lint:ignore <analyzer> <reason>" after the comment
// marker. The reason group is what makes a suppression self-documenting.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s*(.*)$`)

// ApplyIgnores filters diags through the files' //lint:ignore directives.
// A directive suppresses matching findings on its own line and on the line
// directly below it (the usual "comment above the statement" placement). A
// directive with no reason is converted into a finding of its own, so every
// suppression in the tree carries a justification.
func ApplyIgnores(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	ignores := make(map[key]bool)
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					out = append(out, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "lint:ignore directive needs a reason: //lint:ignore " + m[1] + " <why this is safe>",
					})
					continue
				}
				ignores[key{pos.Filename, pos.Line, m[1]}] = true
				ignores[key{pos.Filename, pos.Line + 1, m[1]}] = true
			}
		}
	}
	for _, d := range diags {
		if ignores[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// typeDeclaredIn reports whether a type (after unwrapping pointers) is a
// named type declared in the package with the given import path. Interface
// method sets complicate the obvious "which package declared this method"
// question — wal.File embeds io.Writer, so the method object for f.Write is
// (io.Writer).Write — which is why analyzers match on the receiver type's
// declaring package instead of the method's.
func typeDeclaredIn(t types.Type, path string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == path
}

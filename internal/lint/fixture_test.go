package lint

// This file is a miniature analysistest: each directory under testdata/src
// is one fixture package run through one analyzer, and
//
//	// want `regexp`
//
// comments mark lines where a finding must appear (the regexp matches the
// diagnostic message). Every reported diagnostic must be claimed by a want
// on its line, and every want must be matched by a diagnostic — both
// directions fail the test, so the fixtures pin down positives and
// negatives at once. //lint:ignore directives inside fixtures go through
// the same ApplyIgnores path as production code.
//
// Fixtures may import real module packages (the durerr fixture imports
// minuet/internal/wal), so imports are resolved from gc export data built
// once per test process with `go list -deps -export -json ./...` at the
// module root — the same loading strategy cmd/minuet-vet uses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestLockCheckFixture(t *testing.T)   { runFixture(t, LockCheck, "lockcheck") }
func TestDurErrFixture(t *testing.T)      { runFixture(t, DurErr, "durerr") }
func TestDetCheckFixture(t *testing.T)    { runFixture(t, DetCheck, "detcheck") }
func TestDetClockFixture(t *testing.T)    { runFixture(t, DetCheck, "detclock") }
func TestDecodeBoundFixture(t *testing.T) { runFixture(t, DecodeBound, "decodebound") }

// The interprocedural analyzers get multi-package fixtures: subdirectories
// of the fixture root are sibling packages (import path "<name>/<sub>"), so
// the seeded bugs can span package boundaries the way the real ones do.
func TestLockOrderFixture(t *testing.T) { runProgramFixture(t, LockOrder, "lockorder") }
func TestWireSymFixture(t *testing.T)   { runProgramFixture(t, WireSym, "wiresym") }
func TestLeakCheckFixture(t *testing.T) { runProgramFixture(t, LeakCheck, "leakcheck") }

func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	if a.Scope != nil && !a.Scope(name) {
		t.Fatalf("analyzer %s's Scope rejects package %q: the fixture would silently test nothing", a.Name, name)
	}
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no .go files", name)
	}

	exports := fixtureExports(t)
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	pkg, info, err := TypeCheck(fset, name, files, imp)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}

	got := Run(
		[]*Package{{Path: name, Fset: fset, Files: files, Types: pkg, Info: info}},
		[]*Analyzer{a}, nil)
	checkWants(t, fset, files, got, name)
}

// runProgramFixture runs one interprocedural analyzer over a fixture tree:
// .go files directly under testdata/src/<name> form package <name>, and each
// subdirectory <sub> forms package <name>/<sub>. Fixture packages may import
// each other (type-checking retries until an order works, so the directory
// listing need not be dependency-sorted) and real module packages.
func runProgramFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	if a.Scope != nil && !a.Scope(name) {
		t.Fatalf("analyzer %s's Scope rejects package %q: the fixture would silently test nothing", a.Name, name)
	}
	root := filepath.Join("testdata", "src", name)
	fset := token.NewFileSet()

	type fixPkg struct {
		path  string
		files []*ast.File
	}
	parseDir := func(dir, path string) (*fixPkg, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		fp := &fixPkg{path: path}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			fp.files = append(fp.files, f)
		}
		return fp, nil
	}

	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var pending []*fixPkg
	top, err := parseDir(root, name)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	if len(top.files) > 0 {
		pending = append(pending, top)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub, err := parseDir(filepath.Join(root, e.Name()), name+"/"+e.Name())
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		if len(sub.files) > 0 {
			pending = append(pending, sub)
		}
	}
	if len(pending) == 0 {
		t.Fatalf("fixture %s has no .go files", name)
	}

	exports := fixtureExports(t)
	imp := &sourceFirstImporter{
		source: make(map[string]*types.Package),
		fallback: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}
	var pkgs []*Package
	for len(pending) > 0 {
		progress := false
		var failErr error
		var next []*fixPkg
		for _, fp := range pending {
			pkg, info, err := TypeCheck(fset, fp.path, fp.files, imp)
			if err != nil {
				failErr = err
				next = append(next, fp)
				continue
			}
			imp.source[fp.path] = pkg
			pkgs = append(pkgs, &Package{Path: fp.path, Fset: fset, Files: fp.files, Types: pkg, Info: info})
			progress = true
		}
		if !progress {
			t.Fatalf("type-checking fixture: %v", failErr)
		}
		pending = next
	}

	got := Run(pkgs, []*Analyzer{a}, nil)
	var allFiles []*ast.File
	for _, p := range pkgs {
		allFiles = append(allFiles, p.Files...)
	}
	checkWants(t, fset, allFiles, got, name)
}

// checkWants matches reported diagnostics against the fixture's want
// comments; both an unclaimed diagnostic and an unmatched want fail.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, got []Diagnostic, name string) {
	t.Helper()
	wants, nWants := collectWants(t, fset, files)
	if nWants == 0 {
		t.Fatalf("fixture %s has no want comments: it would pass vacuously", name)
	}
	for _, d := range got {
		ws := wants[wantKey{d.Pos.Filename, d.Pos.Line}]
		matched := false
		for i, w := range ws {
			if w != nil && w.MatchString(d.Message) {
				ws[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w)
			}
		}
	}
}

type wantKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile("//\\s*want\\s+((?:`[^`]*`\\s*)+)$")
var wantArgRe = regexp.MustCompile("`([^`]*)`")

// collectWants extracts the want expectations from the fixture's comments,
// keyed by position; the count is returned so callers can reject fixtures
// with no expectations at all.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) (map[wantKey][]*regexp.Regexp, int) {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	n := 0
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, arg[1], err)
					}
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], re)
					n++
				}
			}
		}
	}
	return wants, n
}

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// fixtureExports builds the import-path -> export-data map once per test
// process by compiling the module from its root.
func fixtureExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			exportsErr = err
			return
		}
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			exportsErr = fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
			return
		}
		exportsMap = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listPkg
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				exportsErr = fmt.Errorf("parsing go list output: %v", err)
				return
			}
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("building export map: %v", exportsErr)
	}
	return exportsMap
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above " + dir)
		}
		dir = parent
	}
}

// TestIgnoreNeedsReason pins the directive contract: a reasonless
// lint:ignore is itself a finding and suppresses nothing.
func TestIgnoreNeedsReason(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t//lint:ignore lockcheck\n\t_ = 1\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	planted := []Diagnostic{{Pos: token.Position{Filename: "p.go", Line: 5}, Analyzer: "lockcheck", Message: "planted"}}
	out := ApplyIgnores(fset, []*ast.File{f}, planted)
	var sawReason, sawPlanted bool
	for _, d := range out {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "needs a reason") {
			sawReason = true
		}
		if d.Message == "planted" {
			sawPlanted = true
		}
	}
	if !sawReason {
		t.Errorf("reasonless directive not reported: %v", out)
	}
	if !sawPlanted {
		t.Errorf("reasonless directive suppressed a finding: %v", out)
	}
}

// TestIgnoreScope pins which lines a justified directive covers: its own
// line and the one below, for the named analyzer only.
func TestIgnoreScope(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t//lint:ignore x stale reads are fine here\n\t_ = 1\n\t_ = 2\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	at := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "p.go", Line: line}, Analyzer: analyzer, Message: analyzer}
	}
	out := ApplyIgnores(fset, []*ast.File{f},
		[]Diagnostic{at(5, "x"), at(6, "x"), at(5, "y")})
	var kept []string
	for _, d := range out {
		kept = append(kept, fmt.Sprintf("%d/%s", d.Pos.Line, d.Analyzer))
	}
	want := []string{"6/x", "5/y"}
	if fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Errorf("surviving diagnostics = %v, want %v", kept, want)
	}
}

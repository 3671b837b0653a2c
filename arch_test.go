package groupranking

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The export rule: an exported package-level function of an internal
// package exists for a caller outside that package. Every such function
// in a non-test file must be referenced, as alias.Name through the
// referring file's import of its package, from a non-test file outside
// the package: the root package, cmd/, examples/, another internal
// package or the benchmark module in bench/. A function only its own
// package calls is unexported; one nothing calls is deleted; a test
// fixture lives in the tests that use it. The packages of reachAllow
// are test support by design (the Makefile's REACH_ALLOW), and the
// exceptions below each carry their reason.

// reachAllow lists the internal packages that only tests import.
var reachAllow = map[string]bool{"chaos": true, "leakcheck": true, "blame": true, "nettap": true}

// exportAllow lists the exported functions kept without an outside
// non-test caller, each with its reason.
var exportAllow = map[string]string{
	"benchtab.CollectSnapshot":      "the root package's snapshot test runs it (make bench-json, make bench-compare)",
	"group.GenerateDLGroup":         "test fixture: other packages' tests build small DL groups with it",
	"group.MODP1024":                "test fixture: other packages' tests build this named group directly",
	"group.Secp256r1":               "test fixture: other packages' tests build this named group directly",
	"group.ToyDL256":                "test fixture: other packages' tests build this named group directly",
	"group.UnsafeElementFromCoords": "test fixture: other packages' tests forge off-curve points with it",
	"journal.Scan":                  "read-only view: other packages' tests inspect a session journal with it",
	"journal.ScanLog":               "read-only view: other packages' tests inspect a durable log with it",
	"telemetry.ValidName":           "test fixture: instrumented packages' tests check their metric names with it",
	"transport.WithRecvTimeout":     "test fixture: other packages' tests bound a receive with it",
	"zkp.Extract":                   "soundness witness: the special-soundness extractor the zkp tests run",
	"zkp.SimulateTranscript":        "HVZK witness: the honest-verifier simulator the zkp tests run",
}

const modulePath = "groupranking"

// srcFile is one parsed Go file: its package's module-relative
// directory and its syntax.
type srcFile struct {
	pkg string
	ast *ast.File
}

// ruleBreaks applies the export rule to files and returns what breaks
// it, sorted: every exported function with no outside caller and no
// exception in allow (keyed "core.Name"), and every exception that no
// longer excuses one, because its function is gone, unexported or now
// called from outside. Package paths in files are module-relative
// ("internal/core").
func ruleBreaks(files []srcFile, fset *token.FileSet, allow map[string]string) []string {
	declared := map[string]string{} // "core.Name" → position
	names := map[string]string{}    // import path → package name
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "internal/") || reachAllow[path.Base(f.pkg)] {
			continue
		}
		names[modulePath+"/"+f.pkg] = f.ast.Name.Name
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[path.Base(f.pkg)+"."+fn.Name.Name] = fset.Position(fn.Pos()).String()
			}
		}
	}
	called := map[string]bool{} // "core.Name"
	for _, f := range files {
		aliases := map[string]string{} // local name → package base name
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name, ok := names[p]
			if !ok || p == modulePath+"/"+f.pkg {
				continue
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			aliases[name] = path.Base(p)
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && aliases[x.Name] != "" {
					called[aliases[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var breaks []string
	for key, pos := range declared {
		if !called[key] && allow[key] == "" {
			breaks = append(breaks, key+" ("+pos+"): exported, but nothing outside its package calls it (unexport it, delete it, or allow it with a reason)")
		}
	}
	for key := range allow {
		if _, ok := declared[key]; !ok || called[key] {
			breaks = append(breaks, key+": allowed, but not an exported function without an outside caller (drop the exception)")
		}
	}
	sort.Strings(breaks)
	return breaks
}

// parseTree parses every non-test Go file under the module root,
// testdata and hidden directories aside; bench/, a nested module,
// counts under its own path.
func parseTree(t *testing.T, fset *token.FileSet) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkg: filepath.ToSlash(filepath.Dir(p)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestExportedFunctionsHaveOutsideCallers(t *testing.T) {
	if _, err := os.Stat("bench"); err != nil {
		t.Fatalf("bench/ must be walked as a caller: %v", err)
	}
	fset := token.NewFileSet()
	for _, b := range ruleBreaks(parseTree(t, fset), fset, exportAllow) {
		t.Error(b)
	}
}

// TestExportRuleFixture runs the rule on a synthetic tree: internal/lib
// exports one function cmd/ calls through a renamed import, one nothing
// calls and one only lib itself calls; bench/ calls lib2's, and chaos
// is exempt. The rule must name exactly Uncalled and Own.
func TestExportRuleFixture(t *testing.T) {
	src := map[string]string{
		"internal/lib/lib.go": `package lib
func Called() int    { return Own() }
func Uncalled() int  { return 1 }
func Own() int       { return 2 }
func unexported() int { return 3 }
type T struct{}
func (T) Method() {}
`,
		"cmd/tool/main.go": `package main
import l "groupranking/internal/lib"
func main() { _ = l.Called(); var t l.T; t.Method() }
`,
		"internal/lib2/lib2.go": `package lib2
import "fmt"
func Print() { fmt.Println() }
`,
		"internal/chaos/chaos.go": `package chaos
func Harness() {}
`,
		"bench/b.go": `package main
import "groupranking/internal/lib2"
func f() { lib2.Print() }
`,
	}
	fset := token.NewFileSet()
	var files []srcFile
	for name, s := range src {
		f, err := parser.ParseFile(fset, name, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{pkg: path.Dir(name), ast: f})
	}
	got := ruleBreaks(files, fset, nil)
	want := []string{"lib.Own (internal/lib/lib.go:4:1)", "lib.Uncalled (internal/lib/lib.go:3:1)"}
	if len(got) != len(want) || !strings.HasPrefix(got[0], want[0]) || !strings.HasPrefix(got[1], want[1]) {
		t.Fatalf("rule on the fixture = %q, want the two entries %q", got, want)
	}
	// Exceptions silence what they name, and one that excuses nothing —
	// a called function, a missing one — is itself a break.
	allow := map[string]string{"lib.Own": "r", "lib.Uncalled": "r", "lib.Called": "r", "lib.Gone": "r"}
	got = ruleBreaks(files, fset, allow)
	if len(got) != 2 || !strings.HasPrefix(got[0], "lib.Called: allowed") || !strings.HasPrefix(got[1], "lib.Gone: allowed") {
		t.Fatalf("rule with exceptions = %q, want the stale lib.Called and lib.Gone", got)
	}
}

package rbc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryFuzzer: `make fuzz` is the one list of fuzzers CI
// runs, so every func Fuzz* in the module (nested modules aside) must
// have a -fuzz= line there naming its own package.
func TestMakeFuzzRunsEveryFuzzer(t *testing.T) {
	listed := makeFuzzTargets(t)
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			found++
			if !listed[pkg+" "+fn.Name.Name] {
				t.Errorf("%s in %s has no -fuzz= line in the Makefile's fuzz target", fn.Name.Name, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzzer in the module")
	}
}

// makeFuzzTargets returns "package name" for every `go test <package>
// ... -fuzz=<name>` line of the Makefile's fuzz target.
func makeFuzzTargets(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^\t\S+ test (\./\S+) .*-fuzz=(\w+)`)
	listed := map[string]bool{}
	inFuzz := false
	for _, l := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(l, "fuzz:"):
			inFuzz = true
		case inFuzz && !strings.HasPrefix(l, "\t"):
			inFuzz = false
		case inFuzz:
			if m := line.FindStringSubmatch(l); m != nil {
				listed[m[1]+" "+m[2]] = true
			}
		}
	}
	if len(listed) == 0 {
		t.Fatal("the Makefile's fuzz target lists no fuzzer")
	}
	return listed
}

// Command wnvet is a determinism linter for the simulation packages.
//
// The sweep engine's result cache and the certificate byte-stability
// guarantee both rest on one invariant: a study cell's output is a pure
// function of its spec. wnvet walks the Go sources of the packages named
// on the command line (defaulting to the packages that carry the
// invariant) and flags the three ways it historically breaks:
//
//   - calls to time.Now / time.Since — wall-clock values leaking into
//     results or hashes;
//   - imports of math/rand (and math/rand/v2) — unseeded or
//     process-global randomness in simulation code;
//   - ranging over a map while directly producing output (fmt printing or
//     building a string) in the loop body — Go's randomized map iteration
//     order makes the rendered output differ run to run.
//
// A finding is suppressed by a trailing `//wnvet:allow <reason>` comment on
// the offending line, recording why the use is benign (e.g. wall-clock
// metrics that never enter results). Test files are skipped. The exit
// status is 1 when any finding survives suppression, 2 on usage or parse
// errors.
//
// Usage:
//
//	wnvet [package-dir ...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs are the packages whose determinism the result cache depends
// on.
var defaultDirs = []string{"internal/sweep", "internal/experiments", "internal/wncheck"}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var findings []finding
	for _, dir := range dirs {
		fs, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wnvet:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos.Filename != findings[j].pos.Filename {
			return findings[i].pos.Filename < findings[j].pos.Filename
		}
		return findings[i].pos.Line < findings[j].pos.Line
	})
	for _, f := range findings {
		fmt.Printf("%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

type finding struct {
	pos token.Position
	msg string
}

// lintDir parses every non-test .go file in dir and returns the findings
// that are not suppressed by a //wnvet:allow comment on their line.
func lintDir(dir string) ([]finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var findings []finding
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		fs, err := lintFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

func lintFile(path string) ([]finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	// allowed collects the lines carrying a //wnvet:allow directive; a
	// finding on such a line is intentionally waived.
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//wnvet:allow") {
				allowed[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	report := func(pos token.Pos, format string, args ...any) []finding {
		p := fset.Position(pos)
		if allowed[p.Line] {
			return nil
		}
		return []finding{{pos: p, msg: fmt.Sprintf(format, args...)}}
	}

	var findings []finding

	// timePkg is the local name the wall-clock package is imported under.
	timePkg := ""
	for _, imp := range f.Imports {
		switch strings.Trim(imp.Path.Value, `"`) {
		case "math/rand", "math/rand/v2":
			findings = append(findings, report(imp.Pos(),
				"import of %s: simulation code must derive randomness from the spec seed", imp.Path.Value)...)
		case "time":
			timePkg = "time"
			if imp.Name != nil {
				timePkg = imp.Name.Name
			}
		}
	}

	maps := mapIdents(f)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if timePkg == "" {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == timePkg && id.Obj == nil {
					if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
						findings = append(findings, report(n.Pos(),
							"call to %s.%s: wall-clock time is nondeterministic across runs", timePkg, sel.Sel.Name)...)
					}
				}
			}
		case *ast.RangeStmt:
			id, ok := n.X.(*ast.Ident)
			if !ok || !maps[id.Name] {
				return true
			}
			if printsOutput(n.Body) {
				findings = append(findings, report(n.Pos(),
					"ranging over map %s while printing: iteration order is randomized; sort the keys first", id.Name)...)
			}
		}
		return true
	})
	return findings, nil
}

// mapIdents scans the file for identifiers that are syntactically known to
// hold maps: `var x map[...]`, `x := make(map[...], ...)`, and map composite
// literals. Without full type checking this undercounts (fields, function
// results), but it is exact on the local idiom the rule exists to catch and
// never false-positives on slices.
func mapIdents(f *ast.File) map[string]bool {
	maps := map[string]bool{}
	isMakeMap := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.MapType:
			return true
		case *ast.CompositeLit:
			_, ok := e.Type.(*ast.MapType)
			return ok
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
				_, ok := e.Args[0].(*ast.MapType)
				return ok
			}
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if id, ok := lhs.(*ast.Ident); ok && isMakeMap(n.Rhs[i]) {
					maps[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, id := range n.Names {
					maps[id.Name] = true
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isMakeMap(v) {
					maps[n.Names[i].Name] = true
				}
			}
		}
		return true
	})
	return maps
}

// printsOutput reports whether the block directly renders output: a call to
// any fmt printing function, or a strings.Builder/bytes.Buffer write.
func printsOutput(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" && id.Obj == nil &&
			strings.Contains(sel.Sel.Name, "rint") { // Print*, Fprint*, Sprint*
			found = true
			return false
		}
		if strings.HasPrefix(sel.Sel.Name, "Write") {
			found = true
			return false
		}
		return true
	})
	return found
}

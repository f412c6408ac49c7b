package whatsnext_test

// The reachability gate: production code is what a binary reaches. Every
// main (each package main under cmd/ and examples/, plus bench/wnperf) is
// linked with inlining off for this module's packages and the linker's
// dependency dump on; a non-test function under internal/ that no dump
// names is dead weight in the production API and fails the test, unless
// reachAllowlist below names it with a reason.
//
// Packages whose import path ends in "test" (internal/intermittent/
// policytest) are test support: their functions are exempt, and no binary
// may link them.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions under internal/ that no binary
// reaches but that stay in production code, each with the reason.
var reachAllowlist = map[string]string{
	"internal/faultinject.CrossValidate":         "the certificate's dynamic contract; ROADMAP item 1 decides whether wnlint runs it or it moves to tests",
	"internal/faultinject.CrossReport.Validated": "part of CrossValidate's report (ROADMAP item 1)",
	"internal/faultinject.CrossReport.String":    "part of CrossValidate's report (ROADMAP item 1)",
	"internal/faultinject.hazardWindow":          "CrossValidate's kill classifier (ROADMAP item 1)",
	"internal/wncheck.DecodeCertificate":         "the public reader of the certificate wnlint -cert writes",
	"internal/energy.Supply.ForceOutage":         "intermittent's tests brown the supply out at an exact instruction through it; energy exports no other way to drain the capacitor",
}

// reachModule is this module's path, the prefix of every package the gate
// inspects.
const reachModule = "whatsnext"

// TestReachability links every main and fails on any function under
// internal/ that none of them reaches.
func TestReachability(t *testing.T) {
	mains, err := discoverMains(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no package main under cmd/ or examples/")
	}
	out := t.TempDir()
	flags := []string{"build", "-o", out + string(filepath.Separator),
		"-gcflags=" + reachModule + "/...=-l", "-ldflags=-dumpdep"}
	var dump strings.Builder
	link := func(dir string, pkgs ...string) {
		cmd := exec.Command("go", append(flags, pkgs...)...)
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", strings.Join(pkgs, " "), dir, err, stderr.String())
		}
		dump.WriteString(stderr.String())
	}
	link(".", mains...)
	link("bench", "./wnperf") // its own module, next to the root one

	rep, err := checkReach(".", reachModule, dump.String(), reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.problems {
		t.Error(p)
	}
	t.Logf("%d mains linked (%s, ./bench/wnperf); %s", len(mains)+1, strings.Join(mains, ", "), rep.summary)
}

// discoverMains lists, as ./-relative paths, every directory under cmd/
// and examples/ that holds a package main.
func discoverMains(root string) ([]string, error) {
	var mains []string
	for _, top := range []string{"cmd", "examples"} {
		err := walkPackages(root, top, func(rel string, pkg *build.Package) error {
			if pkg.Name == "main" {
				mains = append(mains, "./"+rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(mains)
	return mains, nil
}

// walkPackages calls fn for every Go package in the tree root/top, outside
// testdata, with its slash-separated path relative to root and its
// non-test files.
func walkPackages(root, top string, fn func(rel string, pkg *build.Package) error) error {
	return filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		return fn(filepath.ToSlash(rel), pkg)
	})
}

// declFunc is one non-test function declared under internal/.
type declFunc struct {
	name   string // "internal/pkg.F" or "internal/pkg.T.M", relative to the module
	pos    string // file:line
	lines  int
	marker bool // a method with an empty body: a sealed-interface marker
}

// declaredFuncs parses every non-test Go file under root/internal and
// returns its functions, skipping test-support packages (import path
// ending in "test").
func declaredFuncs(root string) ([]declFunc, error) {
	var funcs []declFunc
	fset := token.NewFileSet()
	err := walkPackages(root, "internal", func(rel string, pkg *build.Package) error {
		if strings.HasSuffix(rel, "test") {
			return nil
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				funcs = append(funcs, declFunc{
					name:   rel + "." + funcName(fd),
					pos:    fmt.Sprintf("%s:%d", filepath.ToSlash(start.Filename), start.Line),
					lines:  end.Line - start.Line + 1,
					marker: fd.Recv != nil && fd.Body != nil && len(fd.Body.List) == 0,
				})
			}
		}
		return nil
	})
	return funcs, err
}

// funcName is "F" for a function and "T.M" for a method on T or *T.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	id, _ := typ.(*ast.Ident)
	if id == nil {
		return fd.Name.Name
	}
	return id.Name + "." + fd.Name.Name
}

var (
	ptrRecv = regexp.MustCompile(`\(\*([^)]+)\)`)
	auxSym  = regexp.MustCompile(`\.(stkobj|arginfo\d+|argliveinfo|opendefer|wrapinfo)$`)
)

// reachedNames collects, from -dumpdep output ("A -> B" lines), every
// module-relative name a symbol on either side reaches: the symbol itself
// with generic instantiations F[...] stripped and a (*T).M wrapper read as
// T.M, and each of its prefixes at a '.' or '-' boundary, so a closure
// F.func1 or a method value T.M-fm reaches F or T.M. Function metadata
// symbols (F.stkobj, F.arginfo1, ...) are content-addressed: the linker
// keeps one copy under whichever owner's name it met first, so they reach
// nothing.
func reachedNames(dump, module string) map[string]bool {
	reached := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(dump))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			sym, _, _ = strings.Cut(sym, " ") // drop " <UsedInIface>"-style notes
			if !strings.HasPrefix(sym, module+"/") {
				continue // runtime, main and type:/go: descriptor symbols
			}
			if auxSym.MatchString(sym) {
				continue // content-addressed data, deduplicated under any owner's name
			}
			sym = ptrRecv.ReplaceAllString(stripBrackets(sym), "$1")
			sym = strings.TrimPrefix(sym, module+"/")
			slash := strings.LastIndex(sym, "/")
			dot := strings.IndexByte(sym[slash+1:], '.')
			if dot < 0 {
				continue
			}
			base := slash + 1 + dot
			for i := base + 1; i <= len(sym); i++ {
				if i == len(sym) || sym[i] == '.' || sym[i] == '-' {
					reached[sym[:i]] = true
				}
			}
		}
	}
	return reached
}

// stripBrackets deletes every balanced [...] group from a symbol name.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// linkedTestPkgs reports each test-support package (import path ending in
// "test") some dumped symbol belongs to.
func linkedTestPkgs(dump, module string) []string {
	seen := map[string]bool{}
	for _, field := range strings.Fields(dump) {
		for _, part := range strings.Split(field, ",") {
			i := strings.Index(part, module+"/")
			if i < 0 {
				continue
			}
			path := part[i:]
			slash := strings.LastIndex(path, "/")
			if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
				path = path[:slash+1+dot]
			}
			if strings.HasSuffix(path, "test") {
				seen[path] = true
			}
		}
	}
	var pkgs []string
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs
}

// reachReport is checkReach's verdict: the gate fails on any problem.
type reachReport struct {
	problems []string
	summary  string
}

// checkReach compares the functions declared under root/internal with the
// names a linker dump reaches. It reports one problem per unreached
// function that is neither a marker method nor named in allow, per allow
// entry that is stale (the function is reached or no longer exists), and
// per test-support package a binary links.
func checkReach(root, module, dump string, allow map[string]string) (reachReport, error) {
	funcs, err := declaredFuncs(root)
	if err != nil {
		return reachReport{}, err
	}
	reached := reachedNames(dump, module)
	var rep reachReport
	declared := map[string]bool{}
	var dead, deadLines, failed, markers, allowed int
	for _, f := range funcs {
		declared[f.name] = true
		_, listed := allow[f.name]
		if reached[f.name] {
			if listed {
				rep.problems = append(rep.problems, fmt.Sprintf("stale allowlist entry %s: a binary reaches it", f.name))
			}
			continue
		}
		dead++
		deadLines += f.lines
		switch {
		case f.marker:
			markers++
		case listed:
			allowed++
		default:
			failed++
			rep.problems = append(rep.problems, fmt.Sprintf("unreached from every binary: %s (%s, %d lines)", f.name, f.pos, f.lines))
		}
	}
	for name := range allow {
		if !declared[name] {
			rep.problems = append(rep.problems, fmt.Sprintf("stale allowlist entry %s: no such function", name))
		}
	}
	for _, p := range linkedTestPkgs(dump, module) {
		rep.problems = append(rep.problems, fmt.Sprintf("test-support package %s is linked into a binary", p))
	}
	sort.Strings(rep.problems)
	rep.summary = fmt.Sprintf("%d of %d functions (%d lines) reachable from no binary: %d unlisted, %d allowlisted, %d empty marker methods",
		dead, len(funcs), deadLines, failed, allowed, markers)
	return rep, nil
}

// reachDemoDump is a fabricated -dumpdep excerpt over the testdata/reach
// tree: it reaches Used by name, Generic through an instantiation, Method
// through its pointer wrapper and Closure through its closure. Unused
// appears only as a content-addressed metadata symbol, which reaches
// nothing.
const reachDemoDump = `# whatsnext/cmd/demo
_ -> main.main
main.main -> whatsnext/internal/demo.Used
main.main -> whatsnext/internal/demo.Generic[go.shape.int]
main.main -> type:whatsnext/internal/demo.T <UsedInIface>
type:whatsnext/internal/demo.T -> whatsnext/internal/demo.(*T).Method
main.main -> whatsnext/internal/demo.Closure.func1
runtime.sigaction -> whatsnext/internal/demo.Unused.stkobj
`

// TestReachCheck drives checkReach over testdata/reach with fabricated
// linker dumps, one case per rule of the gate.
func TestReachCheck(t *testing.T) {
	const root = "testdata/reach"
	allowed := map[string]string{"internal/demo.Allowed": "kept on purpose"}
	cases := []struct {
		name  string
		dump  string
		allow map[string]string
		want  []string
	}{
		{
			name: "unreached function is reported",
			dump: reachDemoDump,
			want: []string{
				"unreached from every binary: internal/demo.Allowed (testdata/reach/internal/demo/demo.go:21, 1 lines)",
				"unreached from every binary: internal/demo.Unused (testdata/reach/internal/demo/demo.go:18, 1 lines)",
			},
		},
		{
			// Generic[...], (*T).Method and Closure.func1 reach Generic,
			// T.Method and Closure; the marker isSealed is exempt.
			name:  "allowlisted, instantiated, wrapped, closure and marker pass",
			dump:  reachDemoDump,
			allow: allowed,
			want:  []string{"unreached from every binary: internal/demo.Unused (testdata/reach/internal/demo/demo.go:18, 1 lines)"},
		},
		{
			name:  "stale allowlist entries fail",
			dump:  reachDemoDump + "main.main -> whatsnext/internal/demo.Unused\n",
			allow: map[string]string{"internal/demo.Allowed": "kept", "internal/demo.Used": "reached", "internal/demo.Gone": "deleted"},
			want: []string{
				"stale allowlist entry internal/demo.Gone: no such function",
				"stale allowlist entry internal/demo.Used: a binary reaches it",
			},
		},
		{
			name:  "a binary linking a test-support package fails",
			dump:  reachDemoDump + "main.main -> whatsnext/internal/demo.Unused\nmain.main -> whatsnext/internal/demo/demotest.Helper\n",
			allow: allowed,
			want:  []string{"test-support package whatsnext/internal/demo/demotest is linked into a binary"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := checkReach(root, reachModule, tc.dump, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.problems, tc.want) {
				t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(rep.problems, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

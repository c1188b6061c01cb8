// Command linkcheck lists the functions of the triggerman module that no
// binary links, and fails when that list and allow.txt disagree.
//
// The binaries are every cmd/* and examples/* main package, the bench/
// harness and the bench/ test binary, all built without inlining
// (-gcflags=all=-l) so that a called function keeps its symbol. A
// function counts as linked when its symbol appears in the output of
// `go tool nm` for one of them. Functions in test files, in cmd/,
// examples/ and bench/, and generic functions and methods (whose
// symbols carry their type arguments) are not listed.
//
// Each line of allow.txt names one function by its symbol and gives the
// reason it stays although nothing links it; blank lines and lines
// starting with # are comments. The check fails when an unlinked
// function is missing from the list, and when a listed function is now
// linked or gone, so the list can only shrink.
//
// Run it from the repository root:
//
//	(cd .github/linkcheck && go run . -root ../..)
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root (the triggerman module)")
	allow := flag.String("allow", "", "allowlist file (default <root>/.github/linkcheck/allow.txt)")
	list := flag.Bool("list", false, "print every unlinked function and exit 0")
	flag.Parse()
	if *allow == "" {
		*allow = filepath.Join(*root, ".github", "linkcheck", "allow.txt")
	}
	if err := run(*root, *allow, *list); err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(1)
	}
}

func run(root, allowPath string, list bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	funcs, err := moduleFuncs(root)
	if err != nil {
		return err
	}
	linked, err := linkedSymbols(root)
	if err != nil {
		return err
	}
	var unlinked []string
	for sym, alt := range funcs {
		if !linked[sym] && (alt == "" || !linked[alt]) {
			unlinked = append(unlinked, sym)
		}
	}
	sort.Strings(unlinked)
	if list {
		for _, sym := range unlinked {
			fmt.Println(sym)
		}
		fmt.Fprintf(os.Stderr, "%d of %d functions unlinked\n", len(unlinked), len(funcs))
		return nil
	}

	allowed, err := readAllow(allowPath)
	if err != nil {
		return err
	}
	var problems []string
	for _, sym := range unlinked {
		if _, ok := allowed[sym]; !ok {
			problems = append(problems, "unlinked, not on the allowlist: "+sym)
		}
	}
	isUnlinked := make(map[string]bool, len(unlinked))
	for _, sym := range unlinked {
		isUnlinked[sym] = true
	}
	for sym := range allowed {
		switch _, exists := funcs[sym]; {
		case !exists:
			problems = append(problems, "on the allowlist but gone (remove the entry): "+sym)
		case !isUnlinked[sym]:
			problems = append(problems, "on the allowlist but linked (remove the entry): "+sym)
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	fmt.Printf("%d of %d functions unlinked, %d on the allowlist\n", len(unlinked), len(funcs), len(allowed))
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	return nil
}

// moduleFuncs maps the symbol of every non-generic function declared in
// a non-test file of the module, outside cmd/, examples/ and bench/, to
// the symbol of its pointer-receiver wrapper ("" when it has none): a
// value-receiver method reached only through a pointer links as
// pkg.(*T).M.
func moduleFuncs(root string) (map[string]string, error) {
	out, err := command(root, "go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return nil, err
	}
	funcs := make(map[string]string)
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.SplitN(line, "\t", 3)
		if len(f) < 3 {
			continue
		}
		pkgPath, dir := f[0], f[1]
		rel, _ := filepath.Rel(root, dir)
		top := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
		if top == "cmd" || top == "examples" || top == "bench" {
			continue
		}
		for _, name := range strings.Fields(f[2]) {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || fd.Type.TypeParams != nil {
					continue
				}
				if fd.Recv == nil {
					funcs[pkgPath+"."+fd.Name.Name] = ""
					continue
				}
				typ, ptr, ok := receiver(fd.Recv.List[0].Type)
				if !ok {
					continue // a generic type's method
				}
				if ptr {
					funcs[pkgPath+".(*"+typ+")."+fd.Name.Name] = ""
				} else {
					funcs[pkgPath+"."+typ+"."+fd.Name.Name] = pkgPath + ".(*" + typ + ")." + fd.Name.Name
				}
			}
		}
	}
	return funcs, nil
}

// receiver names a method's receiver type and whether it is a pointer;
// ok is false for a generic type, whose receiver is an index expression.
func receiver(e ast.Expr) (name string, ptr, ok bool) {
	if s, isPtr := e.(*ast.StarExpr); isPtr {
		e, ptr = s.X, true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", ptr, false
	}
	return id.Name, ptr, true
}

// linkedSymbols builds the binaries without inlining into a temporary
// directory and returns the union of their symbol names.
func linkedSymbols(root string) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bench := filepath.Join(root, "bench")
	builds := []struct {
		dir  string
		args []string
	}{
		{root, []string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator), "./cmd/...", "./examples/..."}},
		{bench, []string{"build", "-gcflags=all=-l", "-o", filepath.Join(tmp, "bench.bin"), "."}},
		{bench, []string{"test", "-c", "-gcflags=all=-l", "-o", filepath.Join(tmp, "bench.test"), "."}},
	}
	for _, b := range builds {
		if _, err := command(b.dir, "go", b.args...); err != nil {
			return nil, err
		}
	}
	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		out, err := command(root, "go", "tool", "nm", filepath.Join(tmp, bin.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(out))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			// Lines are "addr type name" or, for undefined symbols, "type name".
			f := strings.Fields(sc.Text())
			if len(f) >= 2 {
				linked[f[len(f)-1]] = true
			}
		}
	}
	return linked, nil
}

// readAllow returns the allowlist's entries; each must give a reason.
func readAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allowed := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, sym)
		}
		if _, dup := allowed[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, sym)
		}
		allowed[sym] = strings.TrimSpace(reason)
	}
	return allowed, nil
}

func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s (in %s): %v\n%s", name, strings.Join(args, " "), dir, err, stderr.String())
	}
	return stdout.String(), nil
}

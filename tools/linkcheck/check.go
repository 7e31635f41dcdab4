package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A key names a declaration relative to internal/: "graph.ShortestPath"
// for a function, "graph.Path.Valid" for a method (pointer and value
// receivers alike), "graph" for a package.

// linked is what the linker kept, as keys.
type linked struct {
	funcs map[string]bool // every function and method key with a linked symbol
	itabs map[string]bool // types ("pcn.splicerPolicy") with a linked go:itab entry
	pkgs  map[string]bool // packages with any linked symbol
}

// readDump parses -dumpdep output. Every symbol the linker keeps is the
// target of exactly one "from -> to" line; prefix is the import path of
// internal/ with a trailing slash.
func readDump(dump []byte, prefix string) linked {
	l := linked{funcs: map[string]bool{}, itabs: map[string]bool{}, pkgs: map[string]bool{}}
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		_, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		to, _, _ = strings.Cut(to, " <") // " <UsedInIface>" and other flags
		if itab, ok := strings.CutPrefix(to, "go:itab."); ok {
			concrete, _, _ := strings.Cut(stripBrackets(itab), ",")
			if pkg, parts := parseSymbol(concrete, prefix); pkg != "" {
				l.itabs[pkg+"."+parts[0]] = true
				l.pkgs[pkg] = true
			}
			continue
		}
		pkg, parts := parseSymbol(to, prefix)
		if pkg == "" || auxData.MatchString(parts[len(parts)-1]) {
			continue
		}
		l.pkgs[pkg] = true
		// "F.func1" may also read as method func1 of a type F; only the
		// key that names a declaration matters, so record both.
		l.funcs[pkg+"."+parts[0]] = true
		if len(parts) > 1 {
			l.funcs[pkg+"."+parts[0]+"."+parts[1]] = true
		}
	}
	return l
}

// auxData matches the last part of a function's data symbols. The linker
// dedupes them by content, so "F.stkobj" may stand for the identical data
// of some other function and says nothing about F.
var auxData = regexp.MustCompile(`^(arginfo[0-9]*|argliveinfo|stkobj|opendefer|wrapinfo|args_stackmap)$`)

// parseSymbol splits a linker symbol under prefix into its package key and
// the dot-separated parts of the name after it, with generic
// instantiations ("[go.shape.int]"), receiver parentheses ("(*T)") and
// suffixes after '-' ("M-fm" method values, "-range1") removed. Symbols of
// other packages, and types built around ours (maps, funcs), yield "";
// any other yields at least one part.
func parseSymbol(sym, prefix string) (pkg string, parts []string) {
	sym = strings.TrimPrefix(sym, "type:")
	sym = strings.TrimLeft(stripBrackets(sym), "*")
	rest, ok := strings.CutPrefix(sym, prefix)
	if !ok {
		return "", nil
	}
	pkg, rest, ok = strings.Cut(rest, ".")
	if !ok {
		return "", nil
	}
	rest = receiverParens.Replace(rest)
	for _, p := range strings.Split(rest, ".") {
		p, _, _ = strings.Cut(p, "-")
		parts = append(parts, p)
	}
	return pkg, parts
}

var receiverParens = strings.NewReplacer("(*", "", "(", "", ")", "")

// stripBrackets removes every bracketed span, nested ones included.
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

// decl is one function or method declared under internal/.
type decl struct {
	key   string
	pkg   string
	recv  string // "pkg.T" for a method, "" for a function
	pos   string // file:line
	lines int
}

type decls struct {
	funcs  []decl
	pkgs   []string            // packages with a non-test Go file
	embeds map[string][]string // "pkg.T" -> the types its struct embeds
}

// parseInternal reads every non-test Go file under root that builds on
// this platform; prefix is root's import path with a trailing slash.
func parseInternal(root, prefix string) (decls, error) {
	ds := decls{embeds: map[string][]string{}}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
			return err
		}
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		if !seen[pkg] {
			seen[pkg] = true
			ds.pkgs = append(ds.pkgs, pkg)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ds.addFile(fset, f, pkg, prefix)
		return nil
	})
	sort.Strings(ds.pkgs)
	return ds, err
}

func (ds *decls) addFile(fset *token.FileSet, f *ast.File, pkg, prefix string) {
	imports := map[string]string{} // local name -> package key, for internal/ imports only
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		key, ok := strings.CutPrefix(path, prefix)
		if !ok {
			continue
		}
		name := key[strings.LastIndex(key, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = key
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.Name == "init" || d.Name.Name == "_" {
				continue
			}
			fd := decl{key: pkg + "." + d.Name.Name, pkg: pkg}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				fd.recv = pkg + "." + typeName(d.Recv.List[0].Type)
				fd.key = fd.recv + "." + d.Name.Name
			}
			start, end := fset.Position(d.Pos()), fset.Position(d.End())
			fd.pos = fmt.Sprintf("%s:%d", filepath.ToSlash(start.Filename), start.Line)
			fd.lines = end.Line - start.Line + 1
			ds.funcs = append(ds.funcs, fd)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if len(field.Names) > 0 {
						continue
					}
					if e := embedded(field.Type, pkg, imports); e != "" {
						t := pkg + "." + ts.Name.Name
						ds.embeds[t] = append(ds.embeds[t], e)
					}
				}
			}
		}
	}
}

// typeName is the bare type name of a receiver: T for T, *T, T[K], *T[K].
func typeName(e ast.Expr) string {
	if id, ok := baseType(e).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// embedded is the key of an embedded field's type when it is declared
// under internal/, else "".
func embedded(e ast.Expr, pkg string, imports map[string]string) string {
	switch x := baseType(e).(type) {
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
			return imports[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

// baseType strips pointers and type arguments off a type expression.
func baseType(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// allowlist maps a function key or a package key to its reason.
type allowlist map[string]string

// reasonKinds are the reasons code may stay without a caller in a binary.
var reasonKinds = []string{
	"oracle",  // a test compares production output against it
	"hook",    // a test sets or reads it to reach a state
	"default", // an interface method's default body
	"optimum", // an offline optimum the online code is to be checked against
}

// parseAllowlist reads lines of the form "<key> <kind>: <reason>"; '#'
// starts a comment line.
func parseAllowlist(r io.Reader) (allowlist, error) {
	a := allowlist{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		kind, why, _ := strings.Cut(reason, ":")
		if !slices.Contains(reasonKinds, kind) || strings.TrimSpace(why) == "" {
			return nil, fmt.Errorf("line %d: want \"<key> <kind>: <reason>\" with kind one of %s", n, strings.Join(reasonKinds, ", "))
		}
		if _, dup := a[key]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", n, key)
		}
		a[key] = reason
	}
	return a, sc.Err()
}

// check returns one line per problem: an unlinked function or package
// with no allowlist entry, and an allowlist entry that no longer names
// unlinked code.
func check(ds decls, l linked, allow allowlist) []string {
	// A method is reachable through an interface when its receiver type,
	// or a type that embeds it (promotion), has a linked itab.
	live := map[string]bool{}
	var mark func(t string)
	mark = func(t string) {
		if live[t] {
			return
		}
		live[t] = true
		for _, e := range ds.embeds[t] {
			mark(e)
		}
	}
	for t := range l.itabs {
		mark(t)
	}
	linkedPkg := maps.Clone(l.pkgs)
	var unlinked []decl
	for _, d := range ds.funcs {
		if l.funcs[d.key] || live[d.recv] {
			linkedPkg[d.pkg] = true
		} else {
			unlinked = append(unlinked, d)
		}
	}
	used := map[string]bool{}
	var problems []string
	for _, pkg := range ds.pkgs {
		if linkedPkg[pkg] {
			continue
		}
		if _, ok := allow[pkg]; ok {
			used[pkg] = true
			continue
		}
		problems = append(problems, fmt.Sprintf("internal/%s: package has no linked symbol", pkg))
	}
	for _, d := range unlinked {
		if _, ok := allow[d.key]; ok {
			used[d.key] = true
			continue
		}
		if _, ok := allow[d.pkg]; ok && !linkedPkg[d.pkg] {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s (%d lines) is linked by no binary", d.pos, d.key, d.lines))
	}
	var stale []string
	for key := range allow {
		if !used[key] {
			stale = append(stale, fmt.Sprintf("allowlist: %s names no unlinked function or package", key))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

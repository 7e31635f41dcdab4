package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

const prefix = "example.com/m/internal/"

// fixture declares, per package key, the source of one file.
var fixture = map[string]string{
	"pcn": `package pcn
import "example.com/m/internal/sim"
type basePolicy struct{}
func (basePolicy) UsesQueues() bool { return false }
type splicerPolicy struct {
	basePolicy
	*sim.Metrics
}
func (*splicerPolicy) Plan() {}
type tuRun struct{}
func (t *tuRun) Fire() {}
func (t *tuRun) unused() {}
func Run() {}
func viaClosure() {}
func viaMethodValue() {}
type T struct{}
func (T) M() {}
func (*T) deferred() {}
func deduped() {}
`,
	"sim": `package sim
type Metrics struct{}
func (m *Metrics) Mean() float64 { return 0 }
`,
	"scenario": `package scenario
func solveOmegas[T any](xs []T) {}
func dead() {}
`,
	"orphan": `package orphan
func Lost() {}
`,
}

func fixtureDecls(t *testing.T) decls {
	t.Helper()
	ds := decls{embeds: map[string][]string{}}
	fset := token.NewFileSet()
	for _, pkg := range []string{"orphan", "pcn", "scenario", "sim"} {
		f, err := parser.ParseFile(fset, pkg+".go", fixture[pkg], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ds.pkgs = append(ds.pkgs, pkg)
		ds.addFile(fset, f, pkg, prefix)
	}
	return ds
}

// dump is -dumpdep output in the linker's shape: one "from -> to" line per
// kept symbol.
const dump = `# example.com/m/cmd/x
_ -> main.main
main.main -> example.com/m/internal/scenario.solveOmegas[go.shape.int]
main.main -> go:itab.*example.com/m/internal/pcn.tuRun,example.com/m/internal/sim.Handler
main.main -> go:itab.*example.com/m/internal/pcn.splicerPolicy,example.com/m/internal/pcn.SchemePolicy
main.main -> example.com/m/internal/pcn.viaClosure.func1.2
main.main -> example.com/m/internal/pcn.viaMethodValue-fm
main.main -> example.com/m/internal/pcn.(*T).deferred.deferwrap1
main.main -> example.com/m/internal/pcn.T.M
main.main -> example.com/m/internal/pcn.Run.arginfo1
runtime.gopark -> example.com/m/internal/pcn.deduped.stkobj
runtime.gopark -> sync/atomic.(*Pointer[go.shape.struct { example.com/m/internal/scenario.epoch uint64 }]).Load
main.main -> type:*example.com/m/internal/pcn.T <UsedInIface>
`

func TestCheckMatchingRules(t *testing.T) {
	got := check(fixtureDecls(t), readDump([]byte(dump), prefix), allowlist{"pcn.Run": "hook: the static test entry"})
	// Linked by rule: solveOmegas (a generic instantiation), tuRun.Fire (its
	// type's itab), splicerPolicy.Plan (its itab) and basePolicy.UsesQueues
	// and sim.Metrics.Mean (promoted from embedded types), viaClosure
	// (.func1.2), viaMethodValue (-fm), T.deferred (.deferwrap1) and T.M.
	// tuRun.unused counts too: the itab rule counts the type, not the
	// interface's methods. pcn.Run has only a deduped data symbol, so its
	// allowlist entry is used.
	want := []string{
		"internal/orphan: package has no linked symbol",
		"orphan.go:2: orphan.Lost (1 lines) is linked by no binary",
		"pcn.go:19: pcn.deduped (1 lines) is linked by no binary",
		"scenario.go:3: scenario.dead (1 lines) is linked by no binary",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCheckAllowlist(t *testing.T) {
	l := readDump([]byte(dump), prefix)
	allow := allowlist{
		"orphan":         "oracle: a whole package",
		"scenario.dead":  "hook: named function",
		"pcn.deduped":    "hook: named method",
		"pcn.Run":        "hook: unused entry",
		"sim":            "optimum: a linked package",
		"pcn.viaClosure": "hook: a linked function",
	}
	got := check(fixtureDecls(t), l, allow)
	want := []string{
		"allowlist: pcn.viaClosure names no unlinked function or package",
		"allowlist: sim names no unlinked function or package",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestParseSymbol(t *testing.T) {
	for _, tc := range []struct {
		sym, pkg string
		parts    []string
	}{
		{prefix + "scenario.solveOmegas[go.shape.int]", "scenario", []string{"solveOmegas"}},
		{prefix + "graph.(*PathFinder).kShortestPaths.func3", "graph", []string{"PathFinder", "kShortestPaths", "func3"}},
		{prefix + "pcn.(*Network).Plan-fm", "pcn", []string{"Network", "Plan"}},
		{prefix + "graph.(*cache[go.shape.int,go.shape.string]).get", "graph", []string{"cache", "get"}},
		{"type:*" + prefix + "pcn.T", "pcn", []string{"T"}},
		{"sync/atomic.(*Pointer[go.shape.struct { " + prefix + "graph.epoch uint64 }]).Load", "", nil},
		{"runtime.main", "", nil},
	} {
		pkg, parts := parseSymbol(tc.sym, prefix)
		if pkg != tc.pkg || !reflect.DeepEqual(parts, tc.parts) {
			t.Errorf("parseSymbol(%q) = %q %q, want %q %q", tc.sym, pkg, parts, tc.pkg, tc.parts)
		}
	}
}

func TestParseAllowlist(t *testing.T) {
	a, err := parseAllowlist(strings.NewReader("# comment\n\ngraph.Path.Valid oracle: finder tests\nnum optimum: item 20\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || a["graph.Path.Valid"] != "oracle: finder tests" {
		t.Fatalf("parsed %v", a)
	}
	for _, bad := range []string{
		"graph.Path.Valid convenient: tests like it\n",
		"graph.Path.Valid oracle:\n",
		"graph.Path.Valid\n",
		"a oracle: x\na hook: y\n",
	} {
		if _, err := parseAllowlist(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

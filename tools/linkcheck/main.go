// Command linkcheck fails when code under internal/ is linked by no
// binary: a function or method that no build of ./cmd/..., ./benchmark or
// ./examples/... links, or a package none of whose symbols is linked.
// Each exception is a line of tools/linkcheck/allowlist.txt naming the
// declaration and why it stays without a caller in a binary.
//
// It builds those main packages with inlining off (so small callees keep
// their symbols) and the linker's dependency dump on, takes the union of
// the linked symbols and compares it with the declarations it parses from
// the non-test files under internal/. Run it from the module root:
//
//	go run ./tools/linkcheck
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// mains are the packages whose binaries define what "linked" means.
var mains = []string{"./cmd/...", "./benchmark", "./examples/..."}

const allowPath = "tools/linkcheck/allowlist.txt"

func main() {
	problems, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("linkcheck: %d problem(s): delete the code, or allowlist it in %s with its reason\n", len(problems), allowPath)
		os.Exit(1)
	}
	fmt.Println("linkcheck: every function and package under internal/ is linked by a binary or allowlisted")
}

func run() ([]string, error) {
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -m: %v", err)
	}
	module := strings.TrimSpace(string(out))
	dump, err := linkerDump()
	if err != nil {
		return nil, err
	}
	decls, err := parseInternal("internal", module+"/internal/")
	if err != nil {
		return nil, err
	}
	f, err := os.Open(allowPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow, err := parseAllowlist(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", allowPath, err)
	}
	return check(decls, readDump(dump, module+"/internal/"), allow), nil
}

// linkerDump builds every main package with -dumpdep and returns the
// linkers' output: one "from -> to" line per symbol the linker keeps.
func linkerDump() ([]byte, error) {
	dir, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", dir + string(filepath.Separator)}, mains...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out.Bytes())
	}
	return out.Bytes(), nil
}

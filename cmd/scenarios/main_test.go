package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"github.com/splicer-pcn/splicer/internal/scenario"
)

// TestParseArgs pins both argument orders run and diff accept, and that a
// second positional is rejected instead of silently dropped.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    string
		out     string
		workers int
		err     string
	}{
		{name: "name first", args: []string{"table1", "-out", "d", "-workers", "1"}, want: "table1", out: "d", workers: 1},
		{name: "flags first", args: []string{"-workers", "1", "-out", "d", "table1"}, want: "table1", out: "d", workers: 1},
		{name: "flags around name", args: []string{"-workers", "1", "fig7a,fig7c", "-out", "d"}, want: "fig7a,fig7c", out: "d", workers: 1},
		{name: "flags only", args: []string{"-out", "d"}, out: "d"},
		{name: "nothing", args: nil, out: "results"},
		{name: "second name after flags", args: []string{"table1", "-out", "d", "fig7c"}, err: `unexpected argument "fig7c"`},
		{name: "two names", args: []string{"-out", "d", "table1", "fig7c"}, err: `unexpected argument "fig7c"`},
		{name: "unknown flag", args: []string{"table1", "-parallel"}, err: "-parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			out := fs.String("out", "results", "")
			workers := fs.Int("workers", 0, "")
			got, err := parseArgs(fs, tc.args)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parseArgs(%q) err = %v, want one containing %q", tc.args, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q): %v", tc.args, err)
			}
			if got != tc.want || *out != tc.out || *workers != tc.workers {
				t.Fatalf("parseArgs(%q) = %q, -out %q, -workers %d; want %q, %q, %d",
					tc.args, got, *out, *workers, tc.want, tc.out, tc.workers)
			}
		})
	}
}

// TestGroupsAreRegistered checks that every member of the small and large
// groups names a registry entry.
func TestGroupsAreRegistered(t *testing.T) {
	for group, names := range groups {
		for _, name := range names {
			if _, ok := scenario.Lookup(name); !ok {
				t.Errorf("group %s: %q is not a registered scenario", group, name)
			}
		}
	}
}

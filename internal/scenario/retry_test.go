package scenario

import (
	"fmt"
	"testing"
)

// trimmedRetry returns a cheap variant of a registered retry-resilience
// scenario (same trim as trimmedAttack, retry block kept).
func trimmedRetry(t *testing.T, name string) Spec {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("registry is missing %q", name)
	}
	s := e.Base
	s.Topology.Nodes = 50
	s.Workload.Rate = 30
	s.Workload.Duration = 2
	s.Routing.HubCandidates = 6
	s.Attack.Start = 0.5
	if s.Attack.Duration > 1 {
		s.Attack.Duration = 1
	}
	if s.Attack.RecoverAfter > 1 {
		s.Attack.RecoverAfter = 1
	}
	return s
}

// TestRetrySpecValidation pins the spec-level retry checks.
func TestRetrySpecValidation(t *testing.T) {
	for _, name := range []string{"retry-jamming", "retry-flash-crowd", "retry-hub-outage"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry is missing %q", name)
		}
		if err := e.Base.Validate(); err != nil {
			t.Fatalf("registered %s spec invalid: %v", name, err)
		}
	}
	bad := RetryJammingSpec()
	bad.Routing.Retry = &RetrySpec{MaxAttempts: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("retry block with max_attempts 1 accepted (unarmed blocks must be omitted, not zeroed)")
	}
	bad = RetryJammingSpec()
	bad.Routing.Retry = &RetrySpec{MaxAttempts: 3, BackoffMs: -5}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative backoff accepted")
	}
}

// TestRetryPanelSmoke runs a trimmed retry-resilience panel and checks the
// two invariance contracts at once: worker-count determinism (inherited from
// the sweep engine) and retry-off column identity — the unarmed variants
// must reproduce the plain attack panel byte-for-byte, because stripping the
// retry block restores the exact PR-8 spec and Split(6) is only drawn when
// armed. Conservation is asserted inside every cell by RunScheme.
func TestRetryPanelSmoke(t *testing.T) {
	base := trimmedRetry(t, "retry-jamming")
	grid := []float64{base.Attack.Intensity}
	schemes := []string{"Splicer", "ShortestPath"}

	run := func(workers int) string {
		tsr, delay, reasons, err := RunRetryPanel(base, grid, schemes, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v %v", tsr, delay, reasons)
	}
	serial := run(1)
	if parallel := run(8); parallel != serial {
		t.Fatalf("8-worker retry panel diverged from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}

	tsr, _, _, err := RunRetryPanel(base, grid, schemes, RunOptions{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	plain := base
	plain.Routing.Retry = nil
	attackTSR, _, err := RunAttackPanel(plain, grid, schemes, RunOptions{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	off := map[string]float64{}
	for _, s := range tsr {
		off[s.Name] = s.Points[0].Y
	}
	for _, s := range attackTSR {
		if s.Name == OnlineLabel {
			continue // attack-panel-only variant, not part of the retry panel
		}
		got, ok := off[s.Name]
		if !ok {
			t.Fatalf("retry panel lacks unarmed column %q", s.Name)
		}
		if got != s.Points[0].Y {
			t.Fatalf("unarmed %s diverged from attack panel: %v vs %v", s.Name, got, s.Points[0].Y)
		}
	}
}

// TestRetryPanelRecoversTSR is the PR's acceptance criterion: with retries
// armed at the default max_attempts=3, the resilience panel must show
// measurably higher honest TSR than the unarmed cells on the jamming and
// hub-outage scenarios — and must never materially hurt any scheme.
func TestRetryPanelRecoversTSR(t *testing.T) {
	for _, name := range []string{"retry-jamming", "retry-hub-outage"} {
		t.Run(name, func(t *testing.T) {
			base := trimmedRetry(t, name)
			tsr, _, reasons, err := RunRetryPanel(base, []float64{base.Attack.Intensity},
				[]string{"Splicer", "ShortestPath"}, RunOptions{Workers: -1})
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string]float64{}
			for _, s := range tsr {
				byName[s.Name] = s.Points[0].Y
			}
			recovered := false
			for _, sc := range []string{"Splicer", "ShortestPath"} {
				off, on := byName[sc], byName[sc+"+retry"]
				if on < off-1e-9 {
					t.Errorf("%s: retries reduced TSR %.4f -> %.4f", sc, off, on)
				}
				if on > off+0.01 {
					recovered = true
				}
			}
			if !recovered {
				t.Fatalf("no scheme recovered measurable TSR with retries armed: %v", byName)
			}
			if len(reasons) == 0 {
				t.Fatal("retry panel produced no failure-reason series")
			}
		})
	}
}
